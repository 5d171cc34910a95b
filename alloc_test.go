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
	t.Run("AdmissionDecision", func(t *testing.T) {
		eng := NewEngine()
		s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerNoop, Mitt: true, Seed: 1})
		for i := 0; i < 16; i++ {
			s.Read(int64(i+1)*(40<<30), 1<<20, 0, func(error) {})
		}
		_ = s.PredictWait(100<<30, 4096) // warm the SSTF-replay scratch
		avg := testing.AllocsPerRun(200, func() {
			_ = s.PredictWait(450<<30, 4096)
		})
		if avg != 0 {
			t.Fatalf("PredictWait allocates %.1f objects per call; budget is 0", avg)
		}
	})
	t.Run("CFQPredictWait", func(t *testing.T) {
		eng := NewEngine()
		s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ, Mitt: true, Seed: 1})
		// Populate several process nodes so the prefix queries walk real
		// trees, plus a device-resident quantum for the mirror replay.
		for i := 0; i < 16; i++ {
			req := &blockio.Request{ID: uint64(i + 1), Op: blockio.Read,
				Offset: int64(i+1) * (40 << 30), Size: 1 << 20, Proc: i % 5}
			s.Target().SubmitSLO(req, func(error) {})
		}
		_ = s.PredictWait(100<<30, 4096) // warm the replay scratch
		avg := testing.AllocsPerRun(200, func() {
			_ = s.PredictWait(450<<30, 4096)
		})
		if avg != 0 {
			t.Fatalf("CFQ PredictWait allocates %.1f objects per call; budget is 0", avg)
		}
	})
	t.Run("CFQSubmitAccept", func(t *testing.T) {
		// Full accept round trip through MittCFQ with an SLO: admission,
		// tolerable-table entry, dispatch, completion, recycling. Requests
		// come from a pool so the path itself is what's measured.
		eng := NewEngine()
		s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ, Mitt: true, Seed: 1})
		var pool blockio.Pool
		var ids blockio.IDGen
		var cur *blockio.Request
		done := func(error) { cur.Release() }
		submit := func(off int64) {
			cur = pool.Get()
			cur.ID = ids.Next()
			cur.Op = blockio.Read
			cur.Offset, cur.Size = off, 4096
			cur.Proc = 1
			cur.Deadline = time.Second
			s.Target().SubmitSLO(cur, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ { // warm every pool on the path
			submit(int64(i+1) * (10 << 30))
		}
		avg := testing.AllocsPerRun(200, func() {
			submit(300 << 30)
		})
		if avg != 0 {
			t.Fatalf("MittCFQ accept path allocates %.1f objects per IO; budget is 0", avg)
		}
	})
	t.Run("DiskDestage", func(t *testing.T) {
		// A buffered write plus the destage pop that follows it, with the
		// NVRAM ring already grown: the ring reuses its backing slice and
		// the disk its pooled ack and service completions.
		step := newDestageLoop(256)
		for i := 0; i < 64; i++ {
			step()
		}
		avg := testing.AllocsPerRun(200, step)
		if avg != 0 {
			t.Fatalf("buffered write + destage allocates %.1f objects per op; budget is 0", avg)
		}
	})
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
	t.Run("PutAccepted", func(t *testing.T) {
		// The accepted durable-put round trip: WAL group assembly, SLO
		// admission through MittCFQ, dispatch, completion, memtable apply,
		// and memory-latency ack — every context on the path is pooled.
		eng := NewEngine()
		s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ, Mitt: true, Seed: 1})
		cfg := kv.DefaultConfig(0, 100<<30)
		cfg.MemtableCap = 1 << 30 // isolate the WAL path: never flush
		var ids blockio.IDGen
		st := kv.New(eng, cfg, s.Target(), &ids)
		done := func(error) {}
		put := func() {
			st.PutDurable(7, time.Second, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ { // warm every pool on the path
			put()
		}
		avg := testing.AllocsPerRun(200, func() {
			put()
		})
		if avg != 0 {
			t.Fatalf("accepted durable put allocates %.1f objects per op; budget is 0", avg)
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
