package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
	"mittos/internal/ssd"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// Fig8Options shape the §7.5 single-box SSD experiment.
type Fig8Options struct {
	Seed     int64
	Duration time.Duration
	// Cores is the machine's CPU count (the paper's box has 8 threads).
	Cores int
	// Partitions is the number of MongoDB processes / SSD partitions (6).
	Partitions int
	// CPUPerOp is the handler CPU burned per request stage; with fast
	// flash, requests are CPU-bound ("processes are not IO bound").
	CPUPerOp time.Duration
	Keys     int64
	// Workers bounds the leg worker pool (0 = one per CPU); see Options.
	Workers int
}

// DefaultFig8Options mirror §7.5: 6 partitions, 6 closed-loop clients, one
// 8-core machine.
func DefaultFig8Options() Fig8Options {
	return Fig8Options{
		Seed: 1, Duration: 30 * time.Second, Cores: 8, Partitions: 6,
		CPUPerOp: 300 * time.Microsecond, Keys: 20000,
	}
}

// QuickFig8Options shrink the run.
func QuickFig8Options() Fig8Options {
	o := DefaultFig8Options()
	o.Duration = 8 * time.Second
	return o
}

// Fig8 reproduces Figure 8: MittSSD vs hedged requests on one machine with
// six SSD partitions. Hedging backfires here: the extra requests double the
// busy handler threads past the core count, and the resulting CPU queueing
// creates the very tail hedging was meant to cut (§7.5).
func Fig8(opt Fig8Options) *Result {
	res := &Result{ID: "fig8", Title: "MittSSD vs Hedged on one 8-core SSD box (§7.5)"}

	// Stage 1: the Base run sets the p95 knob.
	var base *stats.Sample
	runLegs(opt.Workers, legs{func(a *legArena) {
		base = fig8Run(a, opt, "Base", func(c *cluster.Cluster, p95 time.Duration) cluster.Strategy {
			return &cluster.BaseStrategy{C: c}
		}, 0)
	}})
	p95 := base.Percentile(95)
	res.Series = append(res.Series, Series{Name: "Base", Sample: base})
	res.Notes = append(res.Notes, fmt.Sprintf("deadline/hedge trigger = Base p95 = %v (no network hop: local clients)", p95))

	// Stage 2: Hedged and MittSSD are independent given p95.
	var hedged, mitt *stats.Sample
	runLegs(opt.Workers, legs{
		func(a *legArena) {
			hedged = fig8Run(a, opt, "Hedged", func(c *cluster.Cluster, p95 time.Duration) cluster.Strategy {
				return &cluster.HedgedStrategy{C: c, HedgeAfter: p95}
			}, p95)
		},
		func(a *legArena) {
			mitt = fig8Run(a, opt, "MittSSD", func(c *cluster.Cluster, p95 time.Duration) cluster.Strategy {
				return &cluster.MittOSStrategy{C: c, Deadline: p95}
			}, p95)
		},
	})
	res.Series = append(res.Series, Series{Name: "Hedged", Sample: hedged})
	res.Series = append(res.Series, Series{Name: "MittSSD", Sample: mitt})

	tb := reductionTable("vs")
	addReductionRow(tb, "Hedged", mitt, hedged)
	addReductionRow(tb, "Base", mitt, base)
	res.Tables = append(res.Tables, tb)
	return res
}

// fig8Run builds the single-box fleet: 6 SSD "partitions" (one node each,
// no overlapping channels — modeled as independent SSDs) sharing one CPU
// pool, driven by 6 closed-loop clients. The run draws its engine, device
// pools, and sample buffers from the leg arena.
func fig8Run(a *legArena, opt Fig8Options, salt string,
	mk func(*cluster.Cluster, time.Duration) cluster.Strategy, p95 time.Duration) *stats.Sample {
	eng := a.eng
	// Local clients: a ~20µs IPC hop instead of the 0.3ms network.
	net := netsim.New(eng, netsim.Config{HopLatency: 20 * time.Microsecond, JitterStd: 2 * time.Microsecond},
		sim.NewRNG(opt.Seed, "fig8-net-"+salt))
	cpu := cluster.NewCPUPool(eng, opt.Cores)
	scfg := ssd.DefaultConfig()
	// One partition's share of the device: fewer channels per partition.
	scfg.Channels = 4
	scfg.ChipsPerChannel = 4
	tmpl := cluster.NodeConfig{
		Device:      cluster.DeviceSSD,
		SSDConfig:   scfg,
		Mitt:        true,
		MittOptions: core.DefaultOptions(),
		Keys:        opt.Keys,
		CPU:         cpu,
		CPUPerOp:    opt.CPUPerOp,
		Pools:       a.pools,
		SSDPool:     a.ssds,
	}
	c := cluster.NewCluster(eng, net, opt.Partitions, 3, tmpl, sim.NewRNG(opt.Seed, "fig8-nodes"))
	f := &fleet{eng: eng, c: c, arena: a}
	a.fleets = append(a.fleets, f)
	// SSD noise: write bursts on each partition (the §6 SSD distribution).
	for i, n := range c.Nodes {
		space := n.SSD.Config().LogicalBytes() / 2
		cfg := noise.DefaultSSDBursty(space, 900+i)
		b := noise.NewBursty(eng, cfg, n.NoiseSink(), sim.NewRNG(opt.Seed, fmt.Sprintf("fig8-noise-%d", i)))
		b.Start()
		f.noise = append(f.noise, b)
	}
	strat := mk(c, p95)
	ccfg := cluster.ClientConfig{Interval: 50 * time.Microsecond, JitterFrac: 0.5, ScaleFactor: 1,
		Closed: true, Bufs: a.bufs}
	io := stats.NewSample(1 << 14)
	var clients []*cluster.Client
	for i := 0; i < opt.Partitions; i++ {
		wl := ycsb.New(ycsb.DefaultConfig(opt.Keys), sim.NewRNG(opt.Seed, fmt.Sprintf("fig8-wl-%d", i)))
		cl := cluster.NewClient(eng, ccfg, strat, wl, sim.NewRNG(opt.Seed, fmt.Sprintf("fig8-cl-%d", i)))
		cl.Start()
		clients = append(clients, cl)
	}
	a.clients = append(a.clients, clients...)
	eng.RunFor(opt.Duration)
	for _, cl := range clients {
		cl.Stop()
	}
	eng.RunFor(2 * time.Second)
	for _, cl := range clients {
		io.Merge(cl.IOLatencies)
	}
	return io
}
