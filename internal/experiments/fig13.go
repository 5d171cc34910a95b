package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// Fig13Timeline is one sample of panel (b): a node's outstanding-IO count
// and the EBUSY decisions it has issued so far.
type Fig13Timeline struct {
	At          time.Duration
	Outstanding int
	Rejected    uint64
}

// Fig13Result extends the common result with the panel-(b) timeline.
type Fig13Result struct {
	Result
	Timeline []Fig13Timeline
}

// Fig13 reproduces Figure 13: MittOS integrated two levels deep —
// LevelDB-style engine below, Riak-style replicated store above — with
// EBUSY propagating from the storage stack through the engine to the
// cluster layer where failover happens (§7.8.4, §5). Panel (a) compares
// latency CDFs; panel (b) tracks one node's outstanding IOs against the
// moments MittOS returned EBUSY: rejections cluster exactly where the
// queue is deep.
func Fig13(opt Options) *Fig13Result {
	res := &Fig13Result{Result: Result{ID: "fig13",
		Title: "MittOS-powered LevelDB+Riak (§7.8.4)"}}
	// Riak-like: small replicated cluster with an LSM engine that also
	// takes writes (flushes + compactions add background churn).
	ropt := opt
	if ropt.Nodes > 6 {
		ropt.Nodes = 6
	}
	if ropt.Clients > ropt.Nodes {
		// Keep the per-node load of the big-fleet experiments.
		ropt.Clients = ropt.Nodes
	}

	// Stage 1: the Base run sets the deadline.
	var baseIO *stats.Sample
	runLegs(ropt.Workers, legs{func(a *legArena) {
		fb := a.newFleet(ropt, fleetDisk, false, "fig13-base")
		fb.addEC2DiskNoise(ropt)
		baseIO = fig13Run(fb, ropt, nil)
	}})
	p95 := baseIO.Percentile(95)
	res.Series = append(res.Series, Series{Name: "Base", Sample: baseIO})
	res.Notes = append(res.Notes, fmt.Sprintf("deadline = Base p95 = %v", p95))

	// Stage 2: the MittCFQ run (with its panel-(b) timeline probe).
	var mittIO *stats.Sample
	var timeline []Fig13Timeline
	runLegs(ropt.Workers, legs{func(a *legArena) {
		fm := a.newFleet(ropt, fleetDisk, true, "fig13-mitt")
		fm.addEC2DiskNoise(ropt)
		watch := fm.c.Nodes[0]
		fm.eng.NewTicker(250*time.Millisecond, func() {
			timeline = append(timeline, Fig13Timeline{
				At:          fm.eng.Now().Duration(),
				Outstanding: watch.OutstandingIOs(),
				Rejected:    watch.Rejected(),
			})
		})
		mittIO = fig13Run(fm, ropt, &p95)
	}})
	res.Series = append(res.Series, Series{Name: "MittCFQ", Sample: mittIO})
	res.Timeline = timeline

	tb := reductionTable("vs")
	addReductionRow(tb, "Base", mittIO, baseIO)
	res.Tables = append(res.Tables, tb)
	return res
}

// fig13Run drives a 90/10 read/insert workload (LSM churn included) with
// either Base gets or MittOS failover gets.
func fig13Run(f *fleet, opt Options, deadline *time.Duration) *stats.Sample {
	io := stats.NewSample(1 << 14)
	var strat cluster.Strategy
	if deadline != nil {
		strat = &cluster.MittOSStrategy{C: f.c, Deadline: *deadline}
	} else {
		strat = &cluster.BaseStrategy{C: f.c}
	}
	var ticks []*sim.Ticker
	for i := 0; i < opt.Clients; i++ {
		wcfg := ycsb.DefaultConfig(opt.Keys)
		wcfg.ReadFraction = 0.9
		wl := ycsb.New(wcfg, sim.NewRNG(opt.Seed, fmt.Sprintf("fig13-wl-%d", i)))
		tick := f.eng.NewTicker(opt.Interval, func() {
			op := wl.Next()
			if op.Kind == ycsb.OpInsert {
				// Writes go to the key's primary replica (Riak put path),
				// through the traced/pooled one-way put plumbing.
				primary := f.c.ReplicasFor(op.Key)[0]
				f.c.PutOneWay(primary, op.Key%opt.Keys)
				return
			}
			start := f.eng.Now()
			strat.Get(op.Key, func(res cluster.GetResult) {
				io.Add(f.eng.Now().Sub(start))
			})
		})
		ticks = append(ticks, tick)
	}
	f.eng.RunFor(opt.Duration)
	for _, t := range ticks {
		t.Stop()
	}
	f.stopNoise()
	f.eng.RunFor(3 * time.Second)
	return io
}
