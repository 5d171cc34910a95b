package mittos

import (
	"runtime"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/kv"
	"mittos/internal/netsim"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/ssd"
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
		{"CFQSubmitAccept", func() func() {
			return newSubmitLoop(StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ})
		}},
		// The deadline-scheduler twin: MittDeadline's op, the SSTF
		// mirror's dispatch hook and the scheduler's device slot.
		{"DeadlineSubmitAccept", func() func() {
			return newSubmitLoop(StackConfig{Device: DeviceDisk, Scheduler: SchedulerDeadline})
		}},
		// The flash twin: MittSSD's gate op and channel decrements, the
		// SSD's I/O group and page ops.
		{"SSDSubmitAccept", func() func() { return newSubmitLoop(StackConfig{Device: DeviceSSD}) }},
		{"PutAccepted", newPutLoop},
		// The cluster's call shapes: request and reply hops, serve
		// contexts and the one call context behind all three.
		{"ReplicaCalls", newCallLoop},
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
	// One EBUSY, delivered after the syscall round trip. The reply is
	// pooled, so the BusyError that escapes to the caller is the whole
	// budget.
	for _, tc := range []struct {
		name string
		step func() func()
	}{
		{"DeadlineBusy", newDeadlineBusyLoop},
		{"SMRBusy", newSMRBusyLoop},
		{"ThroughputBusy", newThroughputBusyLoop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.step()); avg != 1 {
				t.Fatalf("%s allocates %.1f objects per EBUSY; budget is exactly 1 (the BusyError)", tc.name, avg)
			}
		})
	}
	t.Run("CachedStackMissRead", func(t *testing.T) {
		// A read that misses a root Stack's page cache: the cache's
		// read-through sub-IO enters the block layer through the pooled
		// cluster.TargetDevice adapter, which recycles it at completion.
		// The Request that Stack.Read returns is the whole budget.
		eng := NewEngine()
		s := NewStack(eng, StackConfig{Device: DeviceDisk, CachePages: 64, Seed: 1})
		done := func(error) {}
		i := 0
		read := func() {
			// 256 pages cycled through a 64-page LRU: every read misses.
			s.Read(int64(i%256)<<30, 4096, 0, done)
			eng.Run()
			i++
		}
		for k := 0; k < 512; k++ { // warm the page table and every pool
			read()
		}
		if avg := testing.AllocsPerRun(200, read); avg != 1 {
			t.Fatalf("a cache-miss read allocates %.2f objects; budget is exactly 1 (the Request)", avg)
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
	t.Run("CacheEvictWarm", func(t *testing.T) {
		// fig3 and fig7 swap slabs of a warm working set out and back in.
		// An evicted page keeps its page-table entry on the ghost list, so
		// the cycle writes no map entry and draws no page from the slab.
		eng := NewEngine()
		cfg := oscache.DefaultConfig()
		cfg.CapacityPages = 1024
		c := oscache.New(eng, cfg, disk.New(eng, disk.DefaultConfig(), sim.NewRNG(9, "alloc-cache")))
		const span = 256 << 12 // 256 clean pages: no write-back IO
		c.Warm(0, span)
		avg := testing.AllocsPerRun(200, func() {
			c.EvictRange(0, span)
			c.Warm(0, span)
		})
		if avg != 0 {
			t.Fatalf("EvictRange+Warm allocates %.1f objects per cycle; budget is 0", avg)
		}
	})
	t.Run("SSDNew", func(t *testing.T) {
		// The FTL grows with the pages written, so a DefaultConfig device
		// (128 chips, 56 GiB of 16 KiB logical pages) is a few objects per
		// chip, not its page-mapped capacity.
		cfg := ssd.DefaultConfig()
		eng := NewEngine()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dev := ssd.New(eng, cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(dev)
		bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if perChip := 4*cfg.TotalChips() + 32; bytes >= 1<<20 || objs > uint64(perChip) {
			t.Fatalf("ssd.New allocates %d bytes in %d objects; budget is under 1 MiB and %d objects (4 per chip + 32)",
				bytes, objs, perChip)
		}
	})
	// ssdWrite writes one page of dev through req and drains the engine.
	ssdWrite := func(eng *Engine, dev *ssd.SSD, req *Request, page int) {
		req.Offset = int64(page) * int64(req.Size)
		dev.Submit(req)
		eng.Run()
	}
	t.Run("SSDRewrite", func(t *testing.T) {
		// Once the hot pages have mapping leaves and every block has been
		// programmed, overwrites, GC and wear leveling reuse what the FTL
		// grew: dropping a leaf or rmap and growing it again shows here.
		cfg := ssd.DefaultConfig()
		cfg.Channels, cfg.ChipsPerChannel = 2, 2
		cfg.BlocksPerChip, cfg.PagesPerBlock = 8, 32
		cfg.OverprovisionBlocks = 2
		cfg.WearLevelEvery = 3
		eng := NewEngine()
		dev := ssd.New(eng, cfg)
		gcs := 0
		dev.SetGCHook(func(ssd.GCEvent) { gcs++ })
		req := &Request{Op: OpWrite, Size: cfg.PageSize, OnComplete: func(*Request) {}}
		i := 0
		write := func() { // cycles over 64 hot pages, 16 per chip
			ssdWrite(eng, dev, req, i%64)
			i++
		}
		for n := 0; n < 4*cfg.BlocksPerChip*cfg.PagesPerBlock*cfg.TotalChips(); n++ {
			write()
		}
		if _, _, erases := dev.Stats(); gcs == 0 || dev.WearLevelMoves() == 0 || erases == 0 {
			t.Fatalf("warm-up ran %d GC episodes, %d erases and %d wear-leveling moves; want all three",
				gcs, erases, dev.WearLevelMoves())
		}
		// AllocsPerRun truncates to whole objects per run, so each run is
		// 256 writes: two blocks per chip, with their erases.
		avg := testing.AllocsPerRun(10, func() {
			for n := 0; n < 256; n++ {
				write()
			}
		})
		if avg != 0 {
			t.Fatalf("256 rewrites allocate %.1f objects; budget is 0", avg)
		}
	})
	t.Run("SSDPoolReuse", func(t *testing.T) {
		// An arena leg takes its device from an ssd.Pool, writes, and parks
		// it again. reset keeps the leaves and rmaps the last leg grew, so
		// a leg that writes the same pages allocates nothing.
		var pool ssd.Pool
		eng := NewEngine()
		cfg := ssd.DefaultConfig()
		req := &Request{Op: OpWrite, Size: cfg.PageSize, OnComplete: func(*Request) {}}
		leg := func() {
			dev := pool.Get(eng, cfg)
			for page := 0; page < 64; page++ {
				ssdWrite(eng, dev, req, page)
			}
			pool.Put(dev)
			eng.Reset()
		}
		leg() // grow the leaves, rmaps and per-IO pools
		if avg := testing.AllocsPerRun(20, leg); avg != 0 {
			t.Fatalf("a pooled leg allocates %.1f objects; budget is 0", avg)
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

// newBusyLoop returns one rejected 4 KB read from target, with its EBUSY
// delivered. The step panics if the read is not rejected, so a budget
// cannot pass by admitting.
func newBusyLoop(eng *Engine, target Target, deadline time.Duration) (step func()) {
	req := &Request{ID: 1, Op: OpRead, Offset: 500 << 30, Size: 4096, Proc: 1, Deadline: deadline}
	busy := false
	done := func(err error) { busy = IsBusy(err) }
	step = func() {
		busy = false
		target.SubmitSLO(req, done)
		eng.RunFor(core.DefaultSyscallCost)
		if !busy {
			panic("read not rejected")
		}
	}
	for i := 0; i < 8; i++ { // warm the reply pool
		step()
	}
	return step
}

// newDeadlineBusyLoop rejects reads at MittDeadline behind a backlog of
// sixteen 1 MB reads.
func newDeadlineBusyLoop() (step func()) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerDeadline, Mitt: true, Seed: 1})
	for i := 0; i < 16; i++ {
		s.Read(int64(i+1)*(40<<30), 1<<20, 0, func(error) {})
	}
	return newBusyLoop(eng, s.Target(), time.Millisecond)
}

// newSMRBusyLoop rejects reads at MittSMR while a band clean runs.
func newSMRBusyLoop() (step func()) {
	eng := NewEngine()
	cfg := DefaultSMRConfig()
	cfg.CacheBytes = 64 << 20
	mitt, drive := NewSMRStack(eng, cfg, 1)
	rng := NewRNG(5, "smr-fill")
	for drive.CacheFill() < cfg.CleanHighWater {
		mitt.SubmitSLO(&Request{Op: OpWrite, Offset: rng.Int63n(900<<30) &^ 4095, Size: 1 << 20},
			func(error) {})
		eng.RunFor(time.Millisecond)
	}
	for mitt.CleanRemaining() == 0 {
		eng.RunFor(10 * time.Millisecond)
	}
	return newBusyLoop(eng, mitt, time.Millisecond)
}

// newThroughputBusyLoop rejects reads at ThroughputSLO from a tenant whose
// one-token bucket is spent.
func newThroughputBusyLoop() (step func()) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, Seed: 1})
	ts := NewThroughputSLO(eng, s.Target(), DefaultOptions())
	ts.SetContract(1, 1, 1)
	ts.SubmitSLO(&Request{Op: OpRead, Size: 4096, Proc: 1}, func(error) {})
	return newBusyLoop(eng, ts, 0)
}
