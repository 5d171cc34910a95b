package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/metrics"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// ycsbMixWorkload is one YCSB mix the experiment drives: the canonical A
// (update-heavy), B (read-mostly), and F (read-modify-write) shapes, all
// zipfian like the original benchmark.
type ycsbMixWorkload struct {
	name         string
	readFraction float64
	rmw          bool
}

var ycsbMixWorkloads = []ycsbMixWorkload{
	{name: "A", readFraction: 0.5},
	{name: "B", readFraction: 0.95},
	{name: "F", readFraction: 0.5, rmw: true},
}

func (w ycsbMixWorkload) config(keys int64) ycsb.Config {
	cfg := ycsb.DefaultConfig(keys)
	cfg.ReadFraction = w.readFraction
	cfg.Dist = ycsb.Zipfian
	cfg.InsertFraction = 0 // A/B/F writes are updates of existing keys
	return cfg
}

// putCounters reaches a put strategy's embedded accounting.
func putCounters(ps cluster.PutStrategy) *cluster.PutCounters {
	switch t := ps.(type) {
	case *cluster.BasePut:
		return &t.PutCounters
	case *cluster.TimeoutPut:
		return &t.PutCounters
	case *cluster.HedgedPut:
		return &t.PutCounters
	case *cluster.MittOSPut:
		return &t.PutCounters
	}
	return nil
}

// rwStrategy is one row of the read/write strategy matrix: a read
// strategy and its write-side mirror.
type rwStrategy struct {
	name string
	mitt bool
	mk   func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy)
}

// rwStrategies is the matrix ycsbmix and loadsweep drive: Base, AppTO,
// Hedged, and MittOS on both paths, with getP95 and putP95 as each path's
// deadline, timeout, and hedge trigger. MittOS carries the deadline SLO on
// both paths.
func rwStrategies(getP95, putP95 time.Duration) []rwStrategy {
	return []rwStrategy{
		{"Base", false, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.BaseStrategy{C: c}, &cluster.BasePut{C: c}
		}},
		{"AppTO", false, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.TimeoutStrategy{C: c, TO: getP95},
				&cluster.TimeoutPut{C: c, TO: putP95}
		}},
		{"Hedged", false, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.HedgedStrategy{C: c, HedgeAfter: getP95},
				&cluster.HedgedPut{C: c, HedgeAfter: putP95}
		}},
		{"MittOS", true, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.MittOSStrategy{C: c, Deadline: getP95, UseWaitHint: true},
				&cluster.MittOSPut{C: c, Deadline: putP95, UseWaitHint: true}
		}},
	}
}

// rwKnobs is the knob leg of the read/write experiments: a noisy Base/
// BasePut workload-A run on a fleet salted salt, whose get and put p95 are
// the read and write deadline/timeout/hedge knobs (the §7.2 "use the p95
// latency" rule applied per path). Its clients draw the "ymix-" streams,
// like every ycsbmix leg.
func rwKnobs(a *legArena, opt Options, salt string) (getP95, putP95 time.Duration) {
	f := a.newFleet(opt, fleetDisk, false, salt)
	f.addEC2DiskNoise(opt)
	clients := f.startClients(opt, opt.clientConfig(1), ycsbMixWorkloads[0].config(opt.Keys),
		&cluster.BaseStrategy{C: f.c}, &cluster.BasePut{C: f.c}, false, "ymix-")
	a.run(opt.Duration, legDrain)
	o := harvest(clients, getLat|putLat)
	return o.get.Percentile(95), o.put.Percentile(95)
}

// YCSBMix drives YCSB A/B/F read/write mixes through the full read+write
// strategy matrix under EC2 disk noise: every get goes through the read
// strategy, every put through its write-side mirror (quorum-replicated,
// W = majority), and MittOS legs carry the deadline SLO on both paths. The
// put-side comparison is the experiment's point: a contended replica holds
// Base's quorum hostage for the full queue wait, AppTO/Hedged pay for ring
// handoffs with duplicated durable writes, while MittOSPut hears EBUSY from
// the WAL admission in one RTT and reassembles the quorum elsewhere.
func YCSBMix(opt Options) *Result {
	res := &Result{ID: "ycsbmix", Title: "YCSB A/B/F mixes: SLO-aware writes vs Base/AppTO/Hedged (§5, §7.2)"}

	// Stage 1: the knob leg.
	var getP95, putP95 time.Duration
	runLegs(opt.Workers, legs{func(a *legArena) {
		getP95, putP95 = rwKnobs(a, opt, "ymix-baseline")
	}})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"knobs from noisy Base baseline: get p95 = %v, put p95 = %v", getP95, putP95))

	strategies := rwStrategies(getP95, putP95)
	type mixOut struct {
		legOut
		counters cluster.PutCounters
		snap     *metrics.Snapshot
	}
	outs := make([]mixOut, len(ycsbMixWorkloads)*len(strategies))
	var ls legs
	for wi, wl := range ycsbMixWorkloads {
		for si, st := range strategies {
			i, wl, st := wi*len(strategies)+si, wl, st
			ls.add(func(a *legArena) {
				f := a.newFleet(opt, fleetDisk, st.mitt, "ymix-"+wl.name+"-"+st.name)
				f.addEC2DiskNoise(opt)
				strat, ps := st.mk(f.c)
				clients := f.startClients(opt, opt.clientConfig(1), wl.config(opt.Keys), strat, ps, wl.rmw, "ymix-")
				a.run(opt.Duration, legDrain)
				outs[i] = mixOut{
					legOut:   harvest(clients, getLat|putLat),
					counters: *putCounters(ps),
					snap:     f.snapshot("ycsbmix/" + wl.name + "/" + st.name),
				}
			})
		}
	}
	runLegs(opt.Workers, ls)

	for wi, wl := range ycsbMixWorkloads {
		tb := &stats.Table{Header: []string{"strategy", "finished", "errors", "err%",
			"get p95", "get p99", "put p95", "put p99", "copies", "wasted wr"}}
		for si, st := range strategies {
			o := outs[wi*len(strategies)+si]
			res.Series = append(res.Series, Series{Name: wl.name + "/" + st.name + " put", Sample: o.put})
			tb.AddRow(st.name,
				fmt.Sprint(o.finished),
				fmt.Sprint(o.errors),
				o.errPct(),
				stats.FormatDuration(o.get.Percentile(95)),
				stats.FormatDuration(o.get.Percentile(99)),
				stats.FormatDuration(o.put.Percentile(95)),
				stats.FormatDuration(o.put.Percentile(99)),
				fmt.Sprint(o.counters.CopiesSent),
				fmt.Sprint(o.counters.WastedWrites),
			)
			if o.snap != nil {
				res.Metrics = append(res.Metrics, o.snap)
			}
		}
		res.Tables = append(res.Tables, tb)
	}
	res.Notes = append(res.Notes,
		"tables: one per YCSB mix (A update-heavy, B read-mostly, F read-modify-write); "+
			"copies = replica put copies sent, wasted wr = extra copies durably applied after the quorum verdict")
	return res
}
