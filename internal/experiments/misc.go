package experiments

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/disk"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/nosqlsurvey"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// Table1 reproduces Table 1 (§2) via the nosqlsurvey package, running each
// NoSQL system's behavioural model against 1-second rotating severe
// contention on a 3-replica cluster.
func Table1(opt Options) *Result {
	res := &Result{ID: "table1", Title: "No 'TT' in NoSQL (§2, Table 1)"}
	sopt := nosqlsurvey.DefaultRunOptions()
	sopt.Seed = opt.Seed
	sopt.Keys = opt.Keys
	if opt.Duration < 30*time.Second {
		sopt.Requests = 600 // quick mode
	}
	results := nosqlsurvey.Run(sopt, func(seed int64) (*cluster.Cluster, func(), func()) {
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(seed, "t1-net"))
		tmpl := cluster.NodeConfig{
			Device:      cluster.DeviceDisk,
			DiskConfig:  disk.DefaultConfig(),
			UseCFQ:      true,
			Keys:        sopt.Keys,
			DiskProfile: sharedDiskProfile,
		}
		c := cluster.NewCluster(eng, net, 3, 3, tmpl, sim.NewRNG(seed, "t1-nodes"))
		sinks := []blockio.Device{
			c.Nodes[0].NoiseSink(), c.Nodes[1].NoiseSink(), c.Nodes[2].NoiseSink(),
		}
		rot := noise.NewRotating(eng, sinks, sopt.RotationPeriod, 4, 1<<20, 500<<30,
			sim.NewRNG(seed, "t1-rot"))
		return c, rot.Start, rot.Stop
	})
	res.Notes = append(res.Notes, nosqlsurvey.Table(results))
	return res
}

// Writes reproduces §7.8.6: a write-only YCSB workload under disk noise.
// Because the engine's writes are WAL appends absorbed by NVRAM (and
// memtable inserts), the noisy and noise-free lines nearly coincide.
func Writes(opt Options) *Result {
	res := &Result{ID: "writes", Title: "Write-only workload: Base ≈ NoNoise (§7.8.6)"}
	variants := []string{"NoNoise", "Base"}
	outs := make([]*stats.Sample, len(variants))
	var ls legs
	for vi, variant := range variants {
		vi, variant := vi, variant
		ls.add(func(a *legArena) {
			f := a.newFleet(opt, fleetDisk, false, "writes-"+variant)
			if variant == "Base" {
				f.addEC2DiskNoise(opt)
			}
			io := stats.NewSample(1 << 14)
			var ticks []*sim.Ticker
			for i := 0; i < opt.Clients; i++ {
				wl := ycsb.New(ycsb.DefaultConfig(opt.Keys), sim.NewRNG(opt.Seed, fmt.Sprintf("w-wl-%d", i)))
				tick := f.eng.NewTicker(opt.Interval, func() {
					key := wl.NextKey()
					primary := f.c.ReplicasFor(key)[0]
					start := f.eng.Now()
					f.c.PutCall(primary, key, 0, func(error) {
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
			f.eng.RunFor(2 * time.Second)
			outs[vi] = io
		})
	}
	runLegs(opt.Workers, ls)
	for vi, variant := range variants {
		res.Series = append(res.Series, Series{Name: variant, Sample: outs[vi]})
	}
	return res
}

// AllInOne reproduces §7.8.5: MittCFQ, MittSSD, and MittCache all enabled
// in one deployment, three users with three deadlines (20ms disk / 1ms
// flash / 0.2ms memory), three simultaneous noises, all on ONE simulation
// engine so the three admission layers demonstrably co-exist. Substitution
// note: the paper stacks the resources in one box with bcache; here each
// user's data lives on the matching 3-node tier of the shared deployment,
// which exercises the same three layers concurrently (DESIGN.md).
func AllInOne(opt Options) *Result {
	res := &Result{ID: "allinone", Title: "MittCFQ + MittSSD + MittCache together (§7.8.5)"}
	type tier struct {
		name     string
		kind     fleetKind
		deadline time.Duration
		noisy    func(f *fleet)
	}
	topt := opt
	topt.Nodes = 3
	topt.Clients = 2
	tiers := []tier{
		// The microbenchmark noises of §7.1, all running at once.
		{"disk-user(20ms)", fleetDisk, 20 * time.Millisecond, func(f *fleet) {
			st := noise.NewSteady(f.eng, f.c.Nodes[0].NoiseSink(),
				sim.NewRNG(opt.Seed, "aio-disk-noise"), blockio.Read, 4096, 4,
				blockio.ClassBestEffort, 6, 99, 500<<30)
			st.Start()
		}},
		{"ssd-user(1ms)", fleetSSD, time.Millisecond, func(f *fleet) {
			st := noise.NewSteady(f.eng, f.c.Nodes[0].NoiseSink(),
				sim.NewRNG(opt.Seed, "aio-ssd-noise"), blockio.Write, 256<<10, 2,
				blockio.ClassBestEffort, 4, 99, 512<<10)
			st.Start()
		}},
		{"cache-user(0.2ms)", fleetDiskCache, 200 * time.Microsecond, func(f *fleet) {
			for _, n := range f.c.Nodes {
				warmNodeCache(n, topt.Keys)
			}
			evictFractionOfKeys(f, f.c.Nodes[0], topt.Keys, 0.2,
				sim.NewRNG(opt.Seed, "aio-evict"))
		}},
	}
	// For each variant, ALL tiers start on one engine, run together, and
	// are collected together: the three Mitt layers genuinely co-exist.
	// Each variant is one leg: the tiers must share an engine, but the two
	// variants are independent of each other.
	samples := make([]*stats.Sample, 2*len(tiers))
	var ls legs
	for vi, mitt := range []bool{false, true} {
		vi, mitt := vi, mitt
		ls.add(func(a *legArena) {
			tierClients := make([][]*cluster.Client, len(tiers))
			for i, ti := range tiers {
				f := a.newFleet(topt, ti.kind, mitt, "allinone-"+ti.name)
				ti.noisy(f)
				tierClients[i] = f.startClients(topt, topt.clientConfig(1), ycsb.DefaultConfig(topt.Keys),
					primaryFirst(f.c, mitt, ti.deadline, 0), nil, false, "")
			}
			a.run(topt.Duration, 2*time.Second)
			for i, cls := range tierClients {
				samples[vi*len(tiers)+i] = harvest(cls, getLat).get
			}
		})
	}
	runLegs(opt.Workers, ls)
	for vi, mitt := range []bool{false, true} {
		for i := range tiers {
			name := tiers[i].name + "/Base"
			if mitt {
				name = tiers[i].name + "/Mitt"
			}
			res.Series = append(res.Series, Series{Name: name, Sample: samples[vi*len(tiers)+i]})
		}
	}
	tb := &stats.Table{Header: []string{"user", "Base p95", "Mitt p95", "Base p99", "Mitt p99"}}
	for i, ti := range tiers {
		base, mitt := samples[i], samples[len(tiers)+i]
		tb.AddRow(ti.name,
			stats.FormatDuration(base.Percentile(95)), stats.FormatDuration(mitt.Percentile(95)),
			stats.FormatDuration(base.Percentile(99)), stats.FormatDuration(mitt.Percentile(99)))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"all three tiers share one simulation engine per variant: the three Mitt layers run concurrently")
	return res
}
