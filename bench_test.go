package mittos

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the experiment end-to-end at quick scale (full
// scale via `go run ./cmd/mittbench -full`); ns/op therefore measures the
// cost of reproducing that result, and the reported custom metrics carry
// the experiment's headline numbers so regressions in the *shape* of the
// reproduction show up alongside performance regressions.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/experiments"
	"mittos/internal/kv"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// reportTailMetrics attaches a series' headline percentiles to the bench.
func reportTailMetrics(b *testing.B, res *ExperimentResult, series string, prefix string) {
	b.Helper()
	s := res.FindSeries(series)
	if s == nil {
		return
	}
	b.ReportMetric(float64(s.Sample.Percentile(95))/1e6, prefix+"-p95-ms")
	b.ReportMetric(float64(s.Sample.Percentile(99))/1e6, prefix+"-p99-ms")
}

func benchExperiment(b *testing.B, id string) *ExperimentResult {
	b.Helper()
	var res *ExperimentResult
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment(id, true)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// trackGCPause starts counting the stop-the-world GC pause the benchmark
// causes; the returned report adds it per op as the gc-pause-ns/op metric,
// so the A/B gate sees the GC pressure of an experiment-scale benchmark
// that its ns/op, averaged over a whole regeneration, can hide.
func trackGCPause(b *testing.B) (report func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.PauseTotalNs
	return func() {
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.PauseTotalNs-start)/float64(b.N), "gc-pause-ns/op")
	}
}

// BenchmarkTable1 regenerates Table 1 (the NoSQL tail-tolerance survey).
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1")
}

// BenchmarkFig3 regenerates Figure 3 (EC2 millisecond dynamism).
func BenchmarkFig3(b *testing.B) {
	var pmf1 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(experiments.QuickFig3Options())
		pmf1 = res.BusyPMF[1]
	}
	b.ReportMetric(pmf1, "P(1-busy)")
}

// BenchmarkFig4 regenerates Figure 4 (the four microbenchmarks).
func BenchmarkFig4(b *testing.B) {
	opt := experiments.QuickFig4Options()
	opt.Duration = 4 * time.Second
	var res *ExperimentResult
	reportGCPause := trackGCPause(b)
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(opt)
	}
	reportGCPause()
	reportTailMetrics(b, res, "CFQ-LowPrioNoise/MittOS", "mitt")
	reportTailMetrics(b, res, "CFQ-LowPrioNoise/Base", "base")
}

// BenchmarkFig4Metrics is BenchmarkFig4 with the observability layer fully
// on (counters, histograms, unlimited span tracing) — the recording
// overhead budget is <=15% over the metrics-off run.
func BenchmarkFig4Metrics(b *testing.B) {
	opt := experiments.QuickFig4Options()
	opt.Duration = 4 * time.Second
	opt.Metrics = true
	opt.TraceIOs = -1
	var res *ExperimentResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(opt)
	}
	if len(res.Metrics) == 0 {
		b.Fatal("metrics enabled but no snapshots attached")
	}
	reportTailMetrics(b, res, "CFQ-LowPrioNoise/MittOS", "mitt")
}

// BenchmarkFig5 regenerates Figure 5 (MittCFQ vs Hedged/Clone/AppTO).
func BenchmarkFig5(b *testing.B) {
	res := benchExperiment(b, "fig5")
	reportTailMetrics(b, res, "MittCFQ", "mitt")
	reportTailMetrics(b, res, "Hedged", "hedged")
}

// BenchmarkFig6 regenerates Figure 6 (tail amplified by scale).
func BenchmarkFig6(b *testing.B) {
	res := benchExperiment(b, "fig6")
	reportTailMetrics(b, res, "MittCFQ-SF10", "mitt-sf10")
	reportTailMetrics(b, res, "Hedged-SF10", "hedged-sf10")
}

// BenchmarkFig7 regenerates Figure 7 (MittCache vs Hedged).
func BenchmarkFig7(b *testing.B) {
	res := benchExperiment(b, "fig7")
	reportTailMetrics(b, res, "MittCache-SF1", "mitt")
	reportTailMetrics(b, res, "Hedged-SF1", "hedged")
}

// BenchmarkFig8 regenerates Figure 8 (hedging backfires on a shared-CPU
// SSD box).
func BenchmarkFig8(b *testing.B) {
	res := benchExperiment(b, "fig8")
	reportTailMetrics(b, res, "MittSSD", "mitt")
	reportTailMetrics(b, res, "Hedged", "hedged")
}

// BenchmarkFig9 regenerates Figure 9 (prediction accuracy on five traces).
func BenchmarkFig9(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Fig9(experiments.QuickFig9Options())
		worst = 0
		for _, r := range rows {
			if r.Layer != "Naive" && r.Acc.InaccuracyRate() > worst {
				worst = r.Acc.InaccuracyRate()
			}
		}
	}
	b.ReportMetric(100*worst, "worst-inacc-%")
}

// BenchmarkFig10 regenerates Figure 10 (sensitivity to injected error).
func BenchmarkFig10(b *testing.B) {
	res := benchExperiment(b, "fig10")
	reportTailMetrics(b, res, "NoError", "noerror")
	reportTailMetrics(b, res, "FalsePos-100%", "fp100")
}

// BenchmarkFig11 regenerates Figure 11 (macrobenchmark workload mix).
func BenchmarkFig11(b *testing.B) {
	res := benchExperiment(b, "fig11")
	reportTailMetrics(b, res, "MittCFQ", "mitt")
	reportTailMetrics(b, res, "Hedged", "hedged")
}

// BenchmarkFig12 regenerates Figure 12 (C3 vs sub-second burstiness).
func BenchmarkFig12(b *testing.B) {
	res := benchExperiment(b, "fig12")
	reportTailMetrics(b, res, "C3/1B2F-1sec", "c3-fast")
	reportTailMetrics(b, res, "C3/1B2F-5sec", "c3-slow")
}

// BenchmarkFig13 regenerates Figure 13 (LevelDB+Riak two-level EBUSY).
func BenchmarkFig13(b *testing.B) {
	res := benchExperiment(b, "fig13")
	reportTailMetrics(b, res, "MittCFQ", "mitt")
	reportTailMetrics(b, res, "Base", "base")
}

// BenchmarkAllInOne regenerates §7.8.5 (three Mitt layers co-existing).
func BenchmarkAllInOne(b *testing.B) {
	res := benchExperiment(b, "allinone")
	reportTailMetrics(b, res, "cache-user(0.2ms)/Mitt", "cache-mitt")
	reportTailMetrics(b, res, "cache-user(0.2ms)/Base", "cache-base")
}

// BenchmarkWrites regenerates §7.8.6 (write latencies unaffected by noise).
func BenchmarkWrites(b *testing.B) {
	res := benchExperiment(b, "writes")
	reportTailMetrics(b, res, "Base", "noisy")
	reportTailMetrics(b, res, "NoNoise", "clean")
}

// BenchmarkFailslow regenerates the graceful-degradation matrix (every
// strategy through the composite fault scenario).
func BenchmarkFailslow(b *testing.B) {
	res := benchExperiment(b, "failslow")
	reportTailMetrics(b, res, "MittOS", "mitt")
	reportTailMetrics(b, res, "Base", "base")
}

// BenchmarkYCSBMix regenerates the YCSB A/B/F mixed-workload matrix (every
// read strategy paired with its write-side mirror over quorum puts).
func BenchmarkYCSBMix(b *testing.B) {
	reportGCPause := trackGCPause(b)
	res := benchExperiment(b, "ycsbmix")
	reportGCPause()
	reportTailMetrics(b, res, "A/MittOS put", "mitt-put")
	reportTailMetrics(b, res, "A/Base put", "base-put")
}

// BenchmarkLoadSweep regenerates the offered-load sweep (calibration plus
// the full rate × strategy × path matrix of open-loop Poisson legs). The
// custom metrics carry the headline comparison: SLO attainment at the
// highest pre-saturation rate for MittOS vs Base on the get path.
func BenchmarkLoadSweep(b *testing.B) {
	reportGCPause := trackGCPause(b)
	res := benchExperiment(b, "loadsweep")
	reportGCPause()
	var kneeGet struct{ base, mitt float64 }
	knee := 0.0
	for _, p := range res.Sweep {
		if p.Path == "get" && p.RateMult < 1.0 && p.RateMult > knee {
			knee = p.RateMult
		}
	}
	for _, p := range res.Sweep {
		if p.Path != "get" || p.RateMult != knee {
			continue
		}
		switch p.Strategy {
		case "Base":
			kneeGet.base = p.AttainPct
		case "MittOS":
			kneeGet.mitt = p.AttainPct
		}
	}
	b.ReportMetric(kneeGet.mitt, "mitt-attain-%")
	b.ReportMetric(kneeGet.base, "base-attain-%")
}

// The hot-path benchmarks below share their fixtures with TestAllocBudgets:
// each constructor builds and warms the state and returns one steady-state
// step, which the benchmark times and the allocation budget pins.

// benchLoop times step, one call per iteration, with allocation reporting.
func benchLoop(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// newPutLoop builds a durable kv store over a MittCFQ disk stack and returns
// one accepted durable put run to its ack: WAL group assembly, SLO admission,
// dispatch, completion, memtable apply, and the memory-latency ack.
func newPutLoop() (step func()) {
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
	return put
}

// BenchmarkPutAdmission measures the accepted durable-put round trip — the
// write-path twin of BenchmarkCFQSubmitDispatch, and allocation-free in
// steady state.
func BenchmarkPutAdmission(b *testing.B) {
	benchLoop(b, newPutLoop())
}

// newCallLoop builds an idle 3-node Mitt fleet and returns one step of the
// cluster's three call shapes run until they finish: a ReplicaCall and a
// PutCall, each with a 1 s deadline, and a PutOneWay. That is the request
// hops, the nodes' serve contexts, the kv get and WAL group commits, the
// reply hops and the recycling of every pooled context. The step panics if
// a call goes unanswered.
func newCallLoop() (step func()) {
	eng, c := newAllocCluster("call-loop", true)
	pending := 0
	done := func(error) { pending-- }
	step = func() {
		pending = 2
		c.ReplicaCall(0, 7, time.Second, done)
		c.PutCall(1, 7, time.Second, done)
		c.PutOneWay(2, 7)
		eng.Run()
		if pending != 0 {
			panic("call unanswered")
		}
	}
	for i := 0; i < 64; i++ { // warm every pool on the path
		step()
	}
	return step
}

// BenchmarkReplicaCalls measures the node serve path on its own: one
// ReplicaCall, one PutCall and one PutOneWay per op, allocation-free in
// steady state.
func BenchmarkReplicaCalls(b *testing.B) {
	benchLoop(b, newCallLoop())
}

// newAdmissionLoop builds a MittNoop disk stack with 16 large reads queued
// and returns one admission prediction for a 4 KB read, its offset stepping
// across the disk so the SSTF-mirror replay sees a new seek each time.
func newAdmissionLoop() (step func()) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerNoop, Mitt: true, Seed: 1})
	for i := 0; i < 16; i++ {
		s.Read(int64(i+1)*(40<<30), 1<<20, 0, func(error) {})
	}
	i := 0
	return func() {
		_ = s.PredictWait(int64(i%900)<<30, 4096)
		i++
	}
}

// BenchmarkAdmissionDecision measures the cost of one MittOS admission
// decision in the simulator — the analogue of the paper's <5µs syscall
// claim (here: pure prediction cost, no kernel crossing).
func BenchmarkAdmissionDecision(b *testing.B) {
	benchLoop(b, newAdmissionLoop())
}

// newCFQPredictLoop builds a MittCFQ disk stack with two 1 MB reads queued
// by each of processes procs down to 1 and returns one admission prediction
// for a 4 KB read from process 1. Process procs went first and holds the
// device; process 1 joined the round robin last, so every prediction takes
// the same-class prefix query over all the other queued nodes. MittCFQ
// predicts per process, not per offset, so the read's offset stays put.
func newCFQPredictLoop(procs int) (step func()) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ, Mitt: true, Seed: 1})
	var ids blockio.IDGen
	for p := 0; p < procs; p++ {
		for k := 0; k < 2; k++ {
			req := &Request{ID: ids.Next(), Op: OpRead,
				Offset: int64(p*7+k+1) * (1 << 30), Size: 1 << 20, Proc: procs - p}
			s.Target().SubmitSLO(req, func(error) {})
		}
	}
	_ = s.PredictWait(100<<30, 4096) // warm the replay scratch
	return func() { _ = s.PredictWait(450<<30, 4096) }
}

// BenchmarkPredictWaitCFQ measures MittCFQ's admission prediction with P
// process nodes queued — the path the augmented service trees turned from an
// O(P) walk into O(log P) prefix queries, so ns/op grows with log P, not P.
func BenchmarkPredictWaitCFQ(b *testing.B) {
	for _, procs := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchLoop(b, newCFQPredictLoop(procs))
		})
	}
}

// newSubmitLoop builds a Mitt stack of the given device and scheduler and
// returns one pooled read with an SLO run to completion: admission (and,
// under CFQ, the tolerable-table entry), dispatch, device service,
// completion, and recycling of every pooled context. A disk read is 4 KB,
// stepped 1 GiB apart over 900 GiB; an SSD read is 64 KB, four 16 KB pages
// on four chips, each with its channel decrement and page op, stepped over
// the first 4 GiB.
func newSubmitLoop(cfg StackConfig) (step func()) {
	eng := NewEngine()
	cfg.Mitt, cfg.Seed = true, 1
	s := NewStack(eng, cfg)
	size, stride, steps := 4096, int64(1)<<30, 900
	if cfg.Device == DeviceSSD {
		size, stride, steps = 64<<10, 64<<10, (4<<30)/(64<<10)
	}
	var pool blockio.Pool
	var ids blockio.IDGen
	var cur *blockio.Request
	done := func(error) { cur.Release() }
	submit := func(off int64) {
		cur = pool.Get()
		cur.ID = ids.Next()
		cur.Op = blockio.Read
		cur.Offset, cur.Size = off, size
		cur.Proc = 1
		cur.Deadline = time.Second
		s.Target().SubmitSLO(cur, done)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm every pool on the path
		submit(int64(i+1) * (10 << 30) % (stride * int64(steps)))
	}
	i := 0
	return func() {
		submit(int64(i%steps) * stride)
		i++
	}
}

// BenchmarkCFQSubmitDispatch measures the full MittCFQ accept round trip —
// the per-IO cost of the busiest experiment path.
func BenchmarkCFQSubmitDispatch(b *testing.B) {
	benchLoop(b, newSubmitLoop(StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ}))
}

// BenchmarkDeadlineSubmitDispatch is its MittDeadline twin: admission, the
// deadline scheduler's offset sort and FIFO, dispatch, completion, and
// recycling.
func BenchmarkDeadlineSubmitDispatch(b *testing.B) {
	benchLoop(b, newSubmitLoop(StackConfig{Device: DeviceDisk, Scheduler: SchedulerDeadline}))
}

// BenchmarkSSDSubmitDispatch is the flash round trip: MittSSD's per-page
// prediction and channel decrements, the SSD's I/O group and page ops
// through chip and channel, completion, and recycling.
func BenchmarkSSDSubmitDispatch(b *testing.B) {
	benchLoop(b, newSubmitLoop(StackConfig{Device: DeviceSSD}))
}

// newDestageLoop builds a disk whose NVRAM buffer is filled to within two
// writes of its slots behind a busy spindle, and returns one steady-state
// step: buffer one write (push), then run until the spindle finishes an op
// and starts destaging the oldest buffered write (pop). Occupancy stays
// there step after step, so the step's cost shows whether push and pop
// depend on how full the buffer is. One request is reused: each is acked
// long before the next step.
func newDestageLoop(slots int) (step func()) {
	eng := sim.NewEngine()
	cfg := disk.DefaultConfig()
	cfg.WriteBufferSlots = slots
	d := disk.New(eng, cfg, sim.NewRNG(1, "destage-loop"))
	d.SetSlotFreeHook(eng.Halt)
	w := &blockio.Request{Op: blockio.Write, Size: 4096, OnComplete: func(*blockio.Request) {}}
	i := 0
	submit := func() {
		i++
		w.Offset = int64(i%900) << 30
		d.Submit(w)
		eng.Run() // the ack, then the next spindle completion halts
	}
	for k := 0; k < slots; k++ { // the first write goes straight to the spindle
		i++
		w.Offset = int64(i%900) << 30
		d.Submit(w)
	}
	eng.Run()
	return submit
}

// BenchmarkDiskDestage measures one NVRAM-buffered write plus one destage
// pop with the buffer held at 4094-4095 of 4096 slots: the ring makes both
// O(1), so ns/op does not grow with the buffer's occupancy.
func BenchmarkDiskDestage(b *testing.B) {
	benchLoop(b, newDestageLoop(4096))
}

var seekCostSink time.Duration

// BenchmarkSeekCost measures one profile lookup — the innermost operation of
// every SSTF-mirror replay step, now a direct-index table instead of a
// division plus bucket clamp.
func BenchmarkSeekCost(b *testing.B) {
	prof := disk.ProfileTwin(disk.DefaultConfig(), 42, disk.DefaultProfilerOptions())
	b.ReportAllocs()
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += prof.SeekCost(int64(i%997) << 27)
	}
	seekCostSink = sink
}

// BenchmarkZipfNext measures one zipfian key draw over a YCSB-size key
// space: the key choice of every zipfian client op and of synthetic trace
// generation.
func BenchmarkZipfNext(b *testing.B) {
	z := sim.NewZipf(sim.NewRNG(9, "bench-zipf"), 100_000, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += z.Next()
	}
	zipfSink = sink
}

var zipfSink int64

// BenchmarkEngineThroughput measures raw event-loop throughput, the floor
// under every experiment's wall-clock time. It drives the fire-and-forget
// After path the device models use; with the engine's freelist warm,
// steady-state scheduling is allocation-free.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	eng.After(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineCancelHeavy measures hedged-style schedule-then-cancel
// churn: 4096 request streams each re-arm a 30 ms timeout as a shared ~3 µs
// tick visits them round-robin (each stream every ~12 ms),
// so every timeout is cancelled long before it fires. This is the pattern
// Hedged/Tied/AppTO strategies and MittCFQ bumped-entry cancels put on the
// queue, and the engine's O(1) intrusive unlink serves it. Its 1 alloc/op
// (64 B) is the *Event handle each Schedule returns: handle events are
// allocated fresh, never recycled, so a held handle can never alias a later
// event (TestAllocBudgets/EngineScheduleHandle pins it).
func BenchmarkEngineCancelHeavy(b *testing.B) {
	const (
		streams = 4096
		tickGap = 3 * time.Microsecond
		timeout = 30 * time.Millisecond
	)
	eng := sim.NewEngine()
	nop := func() {}
	timeouts := make([]*sim.Event, streams)
	n, cur := 0, 0
	var tick func()
	tick = func() {
		s := cur
		cur = (cur + 1) % streams
		if timeouts[s] != nil {
			timeouts[s].Cancel()
		}
		timeouts[s] = eng.Schedule(timeout, nop)
		n++
		if n < b.N {
			eng.After(tickGap, tick)
		}
	}
	eng.After(tickGap, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineMixedHorizon interleaves µs-scale device events with ms-
// and multi-second deadlines — the shape of a real experiment leg, where
// disk completions share the queue with SLO timeouts and probe periods. The
// spread keeps several wheel levels occupied so cascading is exercised.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	eng := sim.NewEngine()
	nop := func() {}
	i := 0
	var tick func()
	tick = func() {
		i++
		switch {
		case i%4096 == 0:
			eng.After(5*time.Second, nop)
		case i%256 == 0:
			eng.After(300*time.Millisecond, nop)
		case i%16 == 0:
			eng.After(4*time.Millisecond, nop)
		}
		if i < b.N {
			eng.After(2*time.Microsecond, tick)
		}
	}
	eng.After(2*time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkMittSMR measures the §8.2 SMR extension: deadline probes under
// write churn with band cleaning, reporting the accepted-read tail and the
// clean-rejection count.
func BenchmarkMittSMR(b *testing.B) {
	var worstMs float64
	var rejects uint64
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		cfg := DefaultSMRConfig()
		cfg.CacheBytes = 128 << 20
		mitt, drive := NewSMRStack(eng, cfg, 1)
		_ = drive
		wrng := NewRNG(2, "writes")
		prng := NewRNG(3, "probes")
		var ids uint64
		var worst time.Duration
		eng.NewTicker(15*time.Millisecond, func() {
			ids++
			req := &Request{ID: ids, Op: OpWrite, Offset: wrng.Int63n(900<<30) &^ 4095, Size: 2 << 20}
			mitt.SubmitSLO(req, func(error) {})
		})
		eng.NewTicker(20*time.Millisecond, func() {
			ids++
			start := eng.Now()
			req := &Request{ID: ids, Op: OpRead, Offset: prng.Int63n(900 << 30), Size: 4096,
				Deadline: 25 * time.Millisecond}
			mitt.SubmitSLO(req, func(err error) {
				if err == nil {
					if lat := eng.Now().Sub(start); lat > worst {
						worst = lat
					}
				}
			})
		})
		eng.RunFor(30 * time.Second)
		worstMs = float64(worst) / 1e6
		rejects = mitt.RejectedByClean()
	}
	b.ReportMetric(worstMs, "worst-accepted-ms")
	b.ReportMetric(float64(rejects), "clean-rejects")
}

// BenchmarkMittVMM measures the §8.2 VMM extension: frozen-VM rejection vs
// parking on a contended hypervisor.
func BenchmarkMittVMM(b *testing.B) {
	var p95ms float64
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		host := NewVMMHost(eng, DefaultVMMConfig(), []*GuestVM{
			{ID: 0, CPUBound: true}, {ID: 1, CPUBound: true}, {ID: 2, CPUBound: true},
		})
		idle := NewVMMHost(eng, DefaultVMMConfig(), []*GuestVM{{ID: 0}})
		lat := stats.NewSample(1 << 12)
		rng := NewRNG(9, "vmm")
		eng.NewTicker(5*time.Millisecond, func() {
			start := eng.Now()
			host.Deliver(rng.Intn(3), 10*time.Millisecond, func(err error) {
				if IsBusy(err) {
					idle.Deliver(0, 0, func(error) { lat.Add(eng.Now().Sub(start)) })
					return
				}
				lat.Add(eng.Now().Sub(start))
			})
		})
		eng.RunFor(20 * time.Second)
		p95ms = float64(lat.Percentile(95)) / 1e6
	}
	b.ReportMetric(p95ms, "mitt-p95-ms")
}

// BenchmarkThroughputSLO measures the §8.1 token-bucket admission cost.
func BenchmarkThroughputSLO(b *testing.B) {
	eng := NewEngine()
	stack := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, Seed: 1})
	ts := NewThroughputSLO(eng, stack.Target(), DefaultOptions())
	ts.SetContract(1, 1e9, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &Request{ID: uint64(i + 1), Op: OpRead, Offset: int64(i%1000) * (1 << 20),
			Size: 4096, Proc: 1}
		ts.SubmitSLO(req, func(error) {})
		if i%1024 == 0 {
			eng.Run() // drain periodically so queues stay bounded
		}
	}
	eng.Run()
}
