package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/metrics"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// Fig7 reproduces Figure 7: MittCache vs hedged requests on a 20-node
// cluster whose working set lives in the OS cache, with P% of the cached
// data periodically swapped out by memory contention (§7.4). The deadline
// is tiny — "such that addrcheck returns EBUSY when the data is not cached".
func Fig7(opt Options) *Result {
	res := &Result{ID: "fig7", Title: "MittCache vs Hedged under memory contention (§7.4)"}
	const deadline = 200 * time.Microsecond

	// Stage 1: baseline with cache-eviction noise sets the hedge trigger.
	var baseIO *stats.Sample
	var baseSnap *metrics.Snapshot
	runLegs(opt.Workers, legs{func(a *legArena) {
		fb := a.newFleet(opt, fleetDiskCache, false, "fig7-base")
		addCacheNoise(fb, opt)
		baseIO = fb.runClients(opt, &cluster.BaseStrategy{C: fb.c}, 1, getLat).get
		baseSnap = fb.snapshot("fig7/Base")
	}})
	if baseSnap != nil {
		res.Metrics = append(res.Metrics, baseSnap)
	}
	hedgeAfter := baseIO.Percentile(95)
	res.Series = append(res.Series, Series{Name: "Base", Sample: baseIO})
	res.Notes = append(res.Notes, fmt.Sprintf("hedge trigger = Base p95 = %v; deadline = %v",
		hedgeAfter, deadline))

	// Stage 2: one leg per (scale factor, strategy), as in Fig6.
	res.Metrics = append(res.Metrics,
		sfSweep(res, opt, fleetDiskCache, addCacheNoise, "fig7-", "MittCache", hedgeAfter, deadline)...)
	return res
}

// addCacheNoise loads every node's working set into its page cache, then
// periodically swaps out a contiguous slab of each node's cached blocks —
// the §7.4 manual-swapping methodology, with the slab size calibrated to
// Figure 3c's cache-miss rates (~1.5%).
func addCacheNoise(f *fleet, opt Options) {
	for _, n := range f.c.Nodes {
		warmNodeCache(n, opt.Keys)
	}
	for i, n := range f.c.Nodes {
		n := n
		rng := sim.NewRNG(opt.Seed, fmt.Sprintf("fig7-noise-%d", i))
		// Slab size × re-warm delay targets a ~8% instantaneous swapped-out
		// fraction, so misses surface at ~p90-95 as in Figure 7a.
		slabKeys := opt.Keys / 50
		if slabKeys < 1 {
			slabKeys = 1
		}
		f.eng.NewTicker(500*time.Millisecond, func() {
			start := rng.Int63n(opt.Keys - slabKeys)
			for k := start; k < start+slabKeys; k++ {
				if off, ok := n.Store.KeyOffset(k); ok {
					n.Cache.EvictRange(off, 4096)
				}
			}
			// The owner re-touches its working set: the slab returns to
			// memory a couple of seconds later, as on EC2 (§6).
			f.eng.After(2*time.Second, func() {
				for k := start; k < start+slabKeys; k++ {
					if off, ok := n.Store.KeyOffset(k); ok {
						n.Cache.Warm(off, 4096)
					}
				}
			})
		})
	}
}
