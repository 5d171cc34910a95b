package experiments

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/metrics"
	"mittos/internal/noise"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// Fig4Options shape the §7.1 microbenchmarks.
type Fig4Options struct {
	Seed     int64
	Duration time.Duration
	Interval time.Duration
	Keys     int64
	// Workers bounds the leg worker pool (0 = one per CPU); see Options.
	Workers int
	// Metrics/TraceIOs mirror Options: per-leg observability snapshots
	// attached to the Result, without changing its rendered output.
	Metrics  bool
	TraceIOs int
}

// DefaultFig4Options mirror §7.1: a 3-node cluster, one noisy replica, all
// gets directed at the noisy node first.
func DefaultFig4Options() Fig4Options {
	return Fig4Options{Seed: 1, Duration: 30 * time.Second, Interval: 30 * time.Millisecond, Keys: 20000}
}

// QuickFig4Options shrink the run for tests/benches.
func QuickFig4Options() Fig4Options {
	o := DefaultFig4Options()
	o.Duration = 8 * time.Second
	return o
}

// Fig4 reproduces Figure 4: the four microbenchmarks showing each Mitt
// layer detecting contention and letting the store fail over instantly:
// (a) MittCFQ with low-priority noise, (b) MittCFQ with high-priority
// noise, (c) MittSSD behind a writer, (d) MittCache with evicted pages.
func Fig4(opt Fig4Options) *Result {
	res := &Result{ID: "fig4", Title: "Microbenchmarks: NoNoise vs Base vs MittOS (§7.1)"}
	panels := []struct {
		name     string
		kind     fleetKind
		deadline time.Duration
		noise    func(f *fleet, node int)
	}{
		{
			// (a) 4 threads of 4KB random reads at lower priority than the
			// store.
			name: "CFQ-LowPrioNoise", kind: fleetDisk, deadline: 20 * time.Millisecond,
			noise: func(f *fleet, node int) {
				st := noise.NewSteady(f.eng, f.c.Nodes[node].NoiseSink(),
					sim.NewRNG(opt.Seed, "fig4a-noise"), blockio.Read, 4096, 4,
					blockio.ClassBestEffort, 6, 99, 500<<30)
				st.Start()
			},
		},
		{
			// (b) the same noise at higher ionice priority (BE/0 vs the
			// store's BE/4 — pure RT class would starve BE entirely).
			name: "CFQ-HighPrioNoise", kind: fleetDisk, deadline: 20 * time.Millisecond,
			noise: func(f *fleet, node int) {
				st := noise.NewSteady(f.eng, f.c.Nodes[node].NoiseSink(),
					sim.NewRNG(opt.Seed, "fig4b-noise"), blockio.Read, 4096, 4,
					blockio.ClassBestEffort, 0, 99, 500<<30)
				st.Start()
			},
		},
		{
			// (c) a tenant writing a hot range on the SSD node: the writes
			// keep landing on the same 16 chips, so reads mapped there
			// queue behind 1–2ms programs (§4.3's motivating contention).
			name: "SSD-WriteNoise", kind: fleetSSD, deadline: time.Millisecond,
			noise: func(f *fleet, node int) {
				st := noise.NewSteady(f.eng, f.c.Nodes[node].NoiseSink(),
					sim.NewRNG(opt.Seed, "fig4c-noise"), blockio.Write, 256<<10, 2,
					blockio.ClassBestEffort, 4, 99, 512<<10)
				st.Start()
			},
		},
		{
			// (d) ~20% of the cached working set evicted (posix_fadvise).
			name: "Cache-Evict20", kind: fleetDiskCache, deadline: 200 * time.Microsecond,
			noise: func(f *fleet, node int) {
				n := f.c.Nodes[node]
				warmNodeCache(n, opt.Keys)
				evictFractionOfKeys(f, n, opt.Keys, 0.2, sim.NewRNG(opt.Seed, "fig4d-evict"))
			},
		},
	}

	// Each (panel, variant) pair is a hermetic leg: its own engine, fleet,
	// and noise, nothing shared. All twelve run on the worker pool; Series
	// are assembled in declaration order afterwards.
	variants := []string{"NoNoise", "Base", "MittOS"}
	samples := make([]*stats.Sample, len(panels)*len(variants))
	snaps := make([]*metrics.Snapshot, len(panels)*len(variants))
	var ls legs
	for pi, panel := range panels {
		for vi, variant := range variants {
			pi, vi, panel, variant := pi, vi, panel, variant
			ls.add(func(a *legArena) {
				fopt := Options{Seed: opt.Seed, Nodes: 3, Clients: 2,
					Duration: opt.Duration, Interval: opt.Interval, Keys: opt.Keys,
					Metrics: opt.Metrics, TraceIOs: opt.TraceIOs}
				f := a.newFleet(fopt, panel.kind, variant == "MittOS", panel.name+variant)
				// Warm caches on every node for the cache panel so the
				// non-noisy replicas serve from memory.
				if panel.kind == fleetDiskCache {
					for _, n := range f.c.Nodes {
						warmNodeCache(n, opt.Keys)
					}
				}
				noisyNode := 0
				if variant != "NoNoise" {
					panel.noise(f, noisyNode)
				}
				var strat cluster.Strategy
				if variant == "MittOS" {
					strat = &primaryFirstMitt{c: f.c, deadline: panel.deadline, primary: noisyNode}
				} else {
					strat = &primaryFirstBase{c: f.c, primary: noisyNode}
				}
				io, _ := f.runClients(fopt, strat, 1)
				samples[pi*len(variants)+vi] = io
				snaps[pi*len(variants)+vi] = f.snapshot("fig4/" + panel.name + "/" + variant)
			})
		}
	}
	runLegs(opt.Workers, ls)
	for pi, panel := range panels {
		for vi, variant := range variants {
			res.Series = append(res.Series, Series{
				Name: panel.name + "/" + variant, Sample: samples[pi*len(variants)+vi]})
			if s := snaps[pi*len(variants)+vi]; s != nil {
				res.Metrics = append(res.Metrics, s)
			}
		}
	}
	res.Notes = append(res.Notes,
		"all get()s are first directed at the noisy replica (§7.1)")
	res.Tables = append(res.Tables, fig4Summary(res))
	return res
}

// warmNodeCache loads every key's block into the node's page cache (§7.1:
// the working set starts fully cached).
func warmNodeCache(n *cluster.Node, keys int64) {
	for k := int64(0); k < keys; k++ {
		if off, ok := n.Store.KeyOffset(k); ok {
			n.Cache.Warm(off, 4096)
		}
	}
}

// evictFractionOfKeys throws away frac of the cached blocks on one node.
func evictFractionOfKeys(f *fleet, n *cluster.Node, keys int64, frac float64, rng *sim.RNG) {
	for k := int64(0); k < keys; k++ {
		if rng.Bool(frac) {
			if off, ok := n.Store.KeyOffset(k); ok {
				n.Cache.EvictRange(off, 4096)
			}
		}
	}
}

// primaryFirstBase always asks the designated (noisy) node first and waits.
type primaryFirstBase struct {
	c       *cluster.Cluster
	primary int
}

// Name implements cluster.Strategy.
func (s *primaryFirstBase) Name() string { return "Base" }

// Get implements cluster.Strategy.
func (s *primaryFirstBase) Get(key int64, onDone func(cluster.GetResult)) {
	start := s.c.Eng.Now()
	s.c.ReplicaCall(s.primary, key, 0, func(err error) {
		onDone(cluster.GetResult{Latency: s.c.Eng.Now().Sub(start), Tries: 1, Err: err})
	})
}

// primaryFirstMitt asks the noisy node with a deadline and fails over on
// EBUSY to the other replicas.
type primaryFirstMitt struct {
	c        *cluster.Cluster
	deadline time.Duration
	primary  int
}

// Name implements cluster.Strategy.
func (s *primaryFirstMitt) Name() string { return "MittOS" }

// Get implements cluster.Strategy.
func (s *primaryFirstMitt) Get(key int64, onDone func(cluster.GetResult)) {
	start := s.c.Eng.Now()
	order := []int{s.primary,
		(s.primary + 1) % len(s.c.Nodes), (s.primary + 2) % len(s.c.Nodes)}
	var attempt func(i int)
	attempt = func(i int) {
		deadline := s.deadline
		if i == len(order)-1 {
			deadline = 0
		}
		s.c.ReplicaCall(order[i], key, deadline, func(err error) {
			if err != nil && i+1 < len(order) {
				attempt(i + 1)
				return
			}
			onDone(cluster.GetResult{Latency: s.c.Eng.Now().Sub(start), Tries: i + 1, Err: err})
		})
	}
	attempt(0)
}

// fig4Summary renders the per-panel p95/p99 deltas for EXPERIMENTS.md.
func fig4Summary(res *Result) *stats.Table {
	tb := &stats.Table{Header: []string{"panel", "NoNoise p95", "Base p95", "MittOS p95", "Base p99", "MittOS p99"}}
	for _, panel := range []string{"CFQ-LowPrioNoise", "CFQ-HighPrioNoise", "SSD-WriteNoise", "Cache-Evict20"} {
		row := []string{panel}
		for _, m := range []struct {
			variant string
			pct     float64
		}{{"NoNoise", 95}, {"Base", 95}, {"MittOS", 95}, {"Base", 99}, {"MittOS", 99}} {
			s := res.FindSeries(panel + "/" + m.variant)
			if s == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, stats.FormatDuration(s.Sample.Percentile(m.pct)))
		}
		tb.AddRow(row...)
	}
	return tb
}
