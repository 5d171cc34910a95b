package mittos

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/kv"
	"mittos/internal/netsim"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// allocDiskProfile is computed once; profiling is deterministic and only
// the Mitt put pin needs it.
var allocDiskProfile = disk.ProfileTwin(disk.DefaultConfig(),
	42, disk.ProfilerOptions{Buckets: 32, Tries: 6, ProbeSize: 4096})

// syncStrategy completes every get synchronously — the cheapest possible
// strategy, isolating the client loop itself for the tick pins.
type syncStrategy struct{}

func (syncStrategy) Name() string { return "sync" }

func (syncStrategy) Get(key int64, onDone func(cluster.GetResult)) {
	onDone(cluster.GetResult{Latency: time.Microsecond, Tries: 1})
}

// newAllocCluster builds a minimal 3-node replicated cluster for the client
// issue-path pins, mirroring the experiment fleet shape.
func newAllocCluster(name string, mitt bool) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(61, name+"-net"))
	tmpl := cluster.NodeConfig{
		Device:      cluster.DeviceDisk,
		DiskConfig:  disk.DefaultConfig(),
		UseCFQ:      true,
		Mitt:        mitt,
		MittOptions: core.DefaultOptions(),
		Keys:        10000,
		DiskProfile: allocDiskProfile,
	}
	return eng, cluster.NewCluster(eng, net, 3, 3, tmpl, sim.NewRNG(62, name))
}

// TestAllocBudgets pins the steady-state allocation budgets of the two
// hottest paths. These are hard budgets, not aspirations: a regression
// here silently multiplies across every experiment's millions of IOs.
func TestAllocBudgets(t *testing.T) {
	// The hot-path benchmarks' own steady-state steps (bench_test.go).
	for _, tc := range []struct {
		name string
		step func() func()
	}{
		{"AdmissionDecision", newAdmissionLoop},
		{"CFQPredictWait", func() func() { return newCFQPredictLoop(32) }},
		{"CFQSubmitAccept", newCFQSubmitLoop},
		{"PutAccepted", newPutLoop},
		// A smaller NVRAM ring than the benchmark's, already grown: the
		// ring reuses its backing slice and the disk its pooled ack and
		// service completions.
		{"DiskDestage", func() func() { return newDestageLoop(256) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.step()); avg != 0 {
				t.Fatalf("%s allocates %.1f objects per op; budget is 0", tc.name, avg)
			}
		})
	}
	t.Run("EngineSchedule", func(t *testing.T) {
		eng := NewEngine()
		// Warm the event freelist.
		for i := 0; i < 64; i++ {
			eng.After(time.Duration(i+1)*time.Microsecond, func() {})
		}
		eng.Run()
		avg := testing.AllocsPerRun(200, func() {
			eng.After(time.Microsecond, func() {})
			eng.Run()
		})
		if avg != 0 {
			t.Fatalf("After+Run allocates %.1f objects per event; budget is 0", avg)
		}
	})
	t.Run("EngineScheduleHandle", func(t *testing.T) {
		// Schedule returns a cancellation handle, so its Event is allocated
		// fresh rather than taken from the freelist: a held handle must never
		// alias a later event. That one 64 B Event is the whole budget, and
		// BenchmarkEngineCancelHeavy's 1 alloc/op.
		eng := NewEngine()
		nop := func() {}
		avg := testing.AllocsPerRun(200, func() {
			eng.Schedule(time.Millisecond, nop).Cancel()
		})
		if avg != 1 {
			t.Fatalf("Schedule+Cancel allocates %.1f objects; budget is exactly 1 (the handle)", avg)
		}
	})
	t.Run("EngineResetReuse", func(t *testing.T) {
		// Leg arenas recycle engines across experiment legs; a warmed
		// engine running a multi-level event mix then Reset must not
		// allocate — the timing wheel's slot arrays are fixed engine
		// fields and dropped events return to the freelist.
		eng := NewEngine()
		leg := func() {
			for i := 0; i < 64; i++ {
				eng.After(time.Duration(i+1)*100*time.Microsecond, func() {})
			}
			eng.RunFor(3 * time.Millisecond)
			eng.Reset()
		}
		leg() // warm the freelist
		avg := testing.AllocsPerRun(100, leg)
		if avg != 0 {
			t.Fatalf("Reset-then-reuse allocates %.1f objects per leg; budget is 0", avg)
		}
	})
	t.Run("KVPreload", func(t *testing.T) {
		// Leg set-up preloads every node's store: the base run records the
		// range [0, n) and keeps no per-key index, so its allocations do not
		// grow with n.
		eng := NewEngine()
		var ids blockio.IDGen
		preload := func(n int64) float64 {
			stores := make([]*kv.Store, 0, 101)
			for i := 0; i < cap(stores); i++ {
				stores = append(stores, kv.New(eng, kv.DefaultConfig(0, 100<<30), nil, &ids))
			}
			return testing.AllocsPerRun(100, func() {
				stores[0].Preload(n)
				stores = stores[1:]
			})
		}
		one, big := preload(1), preload(100_000)
		if big != one || big > 2 {
			t.Fatalf("Preload(100000) allocates %.1f objects, Preload(1) %.1f; budget is the same constant, at most 2", big, one)
		}
	})
	t.Run("ZipfMemoized", func(t *testing.T) {
		// Every YCSB client of every leg builds a sampler over the same key
		// space; once ζ(n, θ) is memoized, building one allocates only the
		// sampler itself.
		g := sim.NewRNG(9, "alloc-zipf")
		_ = sim.NewZipf(g, 100_000, 0.99)
		avg := testing.AllocsPerRun(100, func() {
			_ = sim.NewZipf(g, 100_000, 0.99)
		})
		if avg != 1 {
			t.Fatalf("memoized NewZipf allocates %.1f objects; budget is 1 (the *Zipf)", avg)
		}
	})
	t.Run("PoissonTick", func(t *testing.T) {
		// The open-loop Poisson issue path: exponential gap draw, tick,
		// pooled user-request context, synchronous completion, recycling.
		// The loadsweep experiment takes this path millions of times per
		// leg, so it carries the same zero budget as the fixed-interval
		// loop.
		eng := NewEngine()
		strat := &syncStrategy{}
		wl := ycsb.New(ycsb.DefaultConfig(10000), sim.NewRNG(9, "alloc-poisson-wl"))
		cfg := cluster.ClientConfig{
			Interval: 100 * time.Microsecond, Arrival: cluster.ArrivalPoisson,
			ScaleFactor: 1, ExpectedOps: 1 << 16,
			Inflight: &cluster.InflightGauge{}, SLO: time.Millisecond,
		}
		cl := cluster.NewClient(eng, cfg, strat, wl, sim.NewRNG(9, "alloc-poisson-cl"))
		cl.Start()
		eng.RunFor(10 * time.Millisecond) // warm the context pool
		avg := testing.AllocsPerRun(200, func() {
			eng.RunFor(time.Millisecond)
		})
		if avg != 0 {
			t.Fatalf("Poisson tick allocates %.1f objects per millisecond of ticks; budget is 0", avg)
		}
	})
	t.Run("CORecording", func(t *testing.T) {
		// Coordinated-omission-corrected recording on a pre-sized sample:
		// the raw observation plus the synthetic back-fill loop.
		s := stats.NewSample(1 << 14)
		for i := 0; i < 64; i++ {
			s.AddCO(55*time.Millisecond, 10*time.Millisecond)
		}
		avg := testing.AllocsPerRun(200, func() {
			s.AddCO(55*time.Millisecond, 10*time.Millisecond)
		})
		if avg != 0 {
			t.Fatalf("AddCO allocates %.1f objects per record; budget is 0", avg)
		}
	})
	t.Run("YCSBNext", func(t *testing.T) {
		// Op generation is pure RNG arithmetic over a value-typed Op; the
		// mixed zipfian config exercises the read, insert, and update
		// branches plus the skewed key draw.
		cfg := ycsb.DefaultConfig(100000)
		cfg.ReadFraction = 0.5
		cfg.InsertFraction = 0.5
		cfg.Dist = ycsb.Zipfian
		w := ycsb.New(cfg, sim.NewRNG(9, "alloc-ycsb"))
		for i := 0; i < 64; i++ {
			_ = w.Next()
			_ = w.NextKey()
		}
		avg := testing.AllocsPerRun(200, func() {
			_ = w.Next()
			_ = w.NextKey()
		})
		if avg != 0 {
			t.Fatalf("YCSB op generation allocates %.1f objects per op; budget is 0", avg)
		}
	})
	// Full client round trips through the replica-attempt kernel: op and
	// attempt contexts from the cluster pools, serve contexts, revocation
	// handles, timers and replies, then recycling. Each strategy runs on an
	// idle fleet with knobs that fire its timers (AppTO's timeout and the
	// hedges race a cold disk read), so the steady state covers them too.
	for _, tc := range []struct {
		name string
		mitt bool
		get  func(c *cluster.Cluster) cluster.Strategy
		put  func(c *cluster.Cluster) cluster.PutStrategy
	}{
		{name: "BaseGetIssue", get: func(c *cluster.Cluster) cluster.Strategy { return &cluster.BaseStrategy{C: c} }},
		{name: "AppTOGetIssue", get: func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TimeoutStrategy{C: c, TO: time.Millisecond}
		}},
		{name: "CloneGetIssue", get: func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.CloneStrategy{C: c, RNG: sim.NewRNG(9, "alloc-clone")}
		}},
		{name: "HedgedGetIssue", get: func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.HedgedStrategy{C: c, HedgeAfter: time.Microsecond}
		}},
		{name: "TiedGetIssue", get: func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TiedStrategy{C: c, RNG: sim.NewRNG(9, "alloc-tied")}
		}},
		{name: "MittOSGetIssue", mitt: true, get: func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.MittOSStrategy{C: c, Deadline: time.Second, UseWaitHint: true}
		}},
		{name: "BasePutIssue", put: func(c *cluster.Cluster) cluster.PutStrategy { return &cluster.BasePut{C: c} }},
		{name: "AppTOPutIssue", put: func(c *cluster.Cluster) cluster.PutStrategy {
			return &cluster.TimeoutPut{C: c, TO: time.Microsecond}
		}},
		{name: "HedgedPutIssue", put: func(c *cluster.Cluster) cluster.PutStrategy {
			return &cluster.HedgedPut{C: c, HedgeAfter: time.Microsecond}
		}},
		// On an idle fleet every MittOS copy is admitted: the common
		// no-rejection case, with the wait-hint probe and SLO admission.
		{name: "MittOSPutIssue", mitt: true, put: func(c *cluster.Cluster) cluster.PutStrategy {
			return &cluster.MittOSPut{C: c, Deadline: time.Second, UseWaitHint: true}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, c := newAllocCluster("alloc-"+tc.name, tc.mitt)
			var issue func()
			if tc.get != nil {
				s, done := tc.get(c), func(cluster.GetResult) {}
				issue = func() { s.Get(7, done) }
			} else {
				s, done := tc.put(c), func(cluster.PutResult) {}
				issue = func() { s.Put(7, done) }
			}
			op := func() {
				issue()
				eng.Run()
			}
			for i := 0; i < 64; i++ { // warm every pool on the path
				op()
			}
			if avg := testing.AllocsPerRun(200, op); avg != 0 {
				t.Fatalf("%s allocates %.1f objects per op; budget is 0", tc.name, avg)
			}
		})
	}
}
