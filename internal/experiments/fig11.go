package experiments

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/trace"
)

// Fig11 reproduces Figure 11: MittCFQ vs Hedged vs Base when the noisy
// neighbors are real workloads — filebench-like fileserver/varmail/
// webserver mixes and Hadoop batch jobs — colocated on different nodes at
// different intensities (§7.8.1). Panel (b) is the per-percentile
// reduction of MittCFQ vs Hedged, which the paper shows going negative
// above p99 (the 3rd-retry pathology).
func Fig11(opt Options) *Result {
	res := &Result{ID: "fig11", Title: "Macrobenchmark + production workload mix (§7.8.1)"}

	// Stage 1: baseline under the mix sets the knobs.
	p95, baseIO := baselineP95(opt, addWorkloadMix, "fig11-base")
	res.Series = append(res.Series, Series{Name: "Base", Sample: baseIO})
	res.Notes = append(res.Notes, fmt.Sprintf("deadline/hedge trigger = Base p95 = %v", p95))

	// Stage 2: Hedged and MittCFQ fleets are independent given p95.
	var hedged, mitt *stats.Sample
	runLegs(opt.Workers, legs{
		func(a *legArena) {
			fh := a.newFleet(opt, fleetDisk, false, "fig11-hedged")
			addWorkloadMix(fh, opt)
			hedged = fh.runClients(opt, &cluster.HedgedStrategy{C: fh.c, HedgeAfter: p95}, 1, getLat).get
		},
		func(a *legArena) {
			fm := a.newFleet(opt, fleetDisk, true, "fig11-mitt")
			addWorkloadMix(fm, opt)
			mitt = fm.runClients(opt, &cluster.MittOSStrategy{C: fm.c, Deadline: p95}, 1, getLat).get
		},
	})
	res.Series = append(res.Series, Series{Name: "Hedged", Sample: hedged})
	res.Series = append(res.Series, Series{Name: "MittCFQ", Sample: mitt})

	// Panel (b): reduction per percentile.
	tb := &stats.Table{Header: []string{"percentile", "reduction vs Hedged"}}
	for _, p := range []float64{50, 75, 90, 95, 99, 99.5} {
		tb.AddRow(fmt.Sprintf("p%g", p),
			stats.FormatPct(stats.Reduction(mitt.Percentile(p), hedged.Percentile(p))))
	}
	res.Tables = append(res.Tables, tb)
	return res
}

// addWorkloadMix replays a different neighbor workload on each node, cycling
// through four profiles at varied intensity — "filebench's fileserver,
// varmail, and webserver macrobenchmarks on different nodes (creating
// different levels of noise) and the first 50 Hadoop jobs" (§7.8.1). The
// synthetic stand-ins: DTRS≈fileserver (large sequential), EXCH≈varmail
// (small fsync-heavy), DAPPS≈webserver (read-mostly), LMBE≈Hadoop batch.
func addWorkloadMix(f *fleet, opt Options) {
	names := []string{"DTRS", "EXCH", "DAPPS", "LMBE"}
	for i, n := range f.c.Nodes {
		prof, _ := trace.ProfileByName(names[i%len(names)], 500<<30)
		// Vary intensity across nodes: every third node runs hot.
		switch i % 3 {
		case 0:
			prof.MeanIOPS *= 0.7
		case 1:
			prof.MeanIOPS *= 0.3
		case 2:
			prof.MeanIOPS *= 0.1
		}
		tr := trace.Generate(prof, opt.Duration+5*time.Second,
			sim.NewRNG(opt.Seed, fmt.Sprintf("fig11-%d", i)))
		tr = derateForDisk(tr, f.c.Nodes[i].Disk.Config())
		sink := n.NoiseSink()
		var ids blockio.IDGen
		reqs := &blockio.Pool{}
		rep := trace.NewReplayer(f.eng, tr, func(rec trace.Record) {
			req := reqs.Get()
			req.ID, req.Op, req.Offset, req.Size = ids.Next(), rec.Op, rec.Offset, rec.Size
			req.Proc, req.Class, req.Priority = 800+i, blockio.ClassBestEffort, 5
			req.AutoFree = true // recycled by the block-layer boundary
			sink.Submit(req)
		})
		rep.Start()
	}
}
