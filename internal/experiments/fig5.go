package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// Fig5 reproduces Figure 5: MittCFQ vs hedged requests, cloning, and
// application timeout on a 20-node disk-based MongoDB-like cluster with
// EC2-derived noise (§7.2). Panel (a) is the per-IO latency CDF; panel (b)
// the %-latency-reduction bars of MittCFQ against each alternative.
func Fig5(opt Options) *Result {
	res := &Result{ID: "fig5", Title: "MittCFQ vs Hedged/Clone/AppTO with EC2 noise (§7.2)"}

	// The p95 of the noisy baseline sets every knob, as in the paper.
	p95, baseIO := baselineP95(opt, fleetDisk, true)
	res.Notes = append(res.Notes,
		fmt.Sprintf("deadline/timeout/hedge trigger = noisy-Base p95 = %v", p95))
	res.Series = append(res.Series, Series{Name: "Base", Sample: baseIO})

	samples := map[string]*stats.Sample{"Base": baseIO}
	runs := []struct {
		name string
		mitt bool
		mk   func(c *cluster.Cluster) cluster.Strategy
	}{
		{"AppTO", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TimeoutStrategy{C: c, TO: p95}
		}},
		{"Clone", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.CloneStrategy{C: c, RNG: sim.NewRNG(opt.Seed, "clone")}
		}},
		{"Hedged", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.HedgedStrategy{C: c, HedgeAfter: p95}
		}},
		{"MittCFQ", true, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.MittOSStrategy{C: c, Deadline: p95}
		}},
	}
	// Stage 2: the four strategy fleets are independent given p95; one leg
	// each, Series appended in declaration order after the barrier.
	outs := make([]*stats.Sample, len(runs))
	var ls legs
	for i, r := range runs {
		i, r := i, r
		ls.add(func(a *legArena) {
			f := a.newFleet(opt, fleetDisk, r.mitt, r.name)
			f.addEC2DiskNoise(opt)
			io, _ := f.runClients(opt, r.mk(f.c), 1)
			outs[i] = io
		})
	}
	runLegs(opt.Workers, ls)
	for i, r := range runs {
		samples[r.name] = outs[i]
		res.Series = append(res.Series, Series{Name: r.name, Sample: outs[i]})
	}

	res.Tables = append(res.Tables, reductionTable(samples["MittCFQ"], samples))
	return res
}

// Fig6 reproduces Figure 6: tail amplified by scale. A user request fans
// out to SF parallel gets and waits for all; MittCFQ and Hedged are
// compared at SF ∈ {1, 2, 5, 10} (§7.3).
func Fig6(opt Options) *Result {
	res := &Result{ID: "fig6", Title: "Tail amplified by scale: MittCFQ vs Hedged (§7.3)"}
	p95, _ := baselineP95(opt, fleetDisk, true)
	res.Notes = append(res.Notes, fmt.Sprintf("deadline/hedge trigger = %v", p95))

	tb := &stats.Table{Header: []string{"SF", "Avg", "p75", "p90", "p95", "p99"}}
	// Stage 2: one leg per (scale factor, strategy) — eight hermetic runs.
	sfs := []int{1, 2, 5, 10}
	hedgedOut := make([]*stats.Sample, len(sfs))
	mittOut := make([]*stats.Sample, len(sfs))
	var ls legs
	for i, sf := range sfs {
		// A user request fans out to SF gets; spacing user requests SF×
		// apart keeps the per-node IO load constant across panels (the
		// paper's closed-loop YCSB clients self-limit the same way).
		sopt := opt
		sopt.Interval = opt.Interval * time.Duration(sf)
		i, sf, sopt := i, sf, sopt
		ls.add(func(a *legArena) {
			fh := a.newFleet(sopt, fleetDisk, false, fmt.Sprintf("hedged-sf%d", sf))
			fh.addEC2DiskNoise(sopt)
			_, hedgedUser := fh.runClients(sopt, &cluster.HedgedStrategy{C: fh.c, HedgeAfter: p95}, sf)
			hedgedOut[i] = hedgedUser
		})
		ls.add(func(a *legArena) {
			fm := a.newFleet(sopt, fleetDisk, true, fmt.Sprintf("mitt-sf%d", sf))
			fm.addEC2DiskNoise(sopt)
			_, mittUser := fm.runClients(sopt, &cluster.MittOSStrategy{C: fm.c, Deadline: p95}, sf)
			mittOut[i] = mittUser
		})
	}
	runLegs(opt.Workers, ls)
	for i, sf := range sfs {
		res.Series = append(res.Series,
			Series{Name: fmt.Sprintf("Hedged-SF%d", sf), Sample: hedgedOut[i]},
			Series{Name: fmt.Sprintf("MittCFQ-SF%d", sf), Sample: mittOut[i]},
		)
		row := stats.ReductionRow(mittOut[i], hedgedOut[i])
		cells := []string{fmt.Sprintf("%d", sf)}
		for _, v := range row {
			cells = append(cells, stats.FormatPct(v))
		}
		tb.AddRow(cells...)
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"table: % latency reduction of MittCFQ vs Hedged per scale factor")
	return res
}

// Fig10 reproduces Figure 10: tail sensitivity to injected prediction error
// on the Fig5 setup. Panel (a) injects false negatives (suppressed EBUSY),
// panel (b) false positives (spurious EBUSY), at E ∈ {20%, 60%, 100%}
// (§7.7).
func Fig10(opt Options) *Result {
	res := &Result{ID: "fig10", Title: "Tail sensitivity to prediction error (§7.7)"}
	p95, baseIO := baselineP95(opt, fleetDisk, true)
	res.Notes = append(res.Notes, fmt.Sprintf("deadline = %v", p95))
	res.Series = append(res.Series, Series{Name: "Base", Sample: baseIO})

	// Stage 2: seven injection points, one hermetic leg each.
	type inj struct {
		name   string
		fn, fp float64
	}
	points := []inj{{"NoError", 0, 0}}
	for _, e := range []float64{0.2, 0.6, 1.0} {
		points = append(points, inj{fmt.Sprintf("FalseNeg-%d%%", int(e*100)), e, 0})
	}
	for _, e := range []float64{0.2, 0.6, 1.0} {
		points = append(points, inj{fmt.Sprintf("FalsePos-%d%%", int(e*100)), 0, e})
	}
	outs := make([]*stats.Sample, len(points))
	var ls legs
	for i, pt := range points {
		i, pt := i, pt
		ls.add(func(a *legArena) {
			f := a.newFleet(opt, fleetDisk, true, pt.name)
			f.addEC2DiskNoise(opt)
			for _, n := range f.c.Nodes {
				n.Mitt.SetErrorInjection(pt.fn, pt.fp, sim.NewRNG(opt.Seed, "inj-"+pt.name))
			}
			io, _ := f.runClients(opt, &cluster.MittOSStrategy{C: f.c, Deadline: p95}, 1)
			outs[i] = io
		})
	}
	runLegs(opt.Workers, ls)
	for i, pt := range points {
		res.Series = append(res.Series, Series{Name: pt.name, Sample: outs[i]})
	}
	return res
}
