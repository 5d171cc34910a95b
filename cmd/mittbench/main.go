// Command mittbench regenerates the tables and figures of the MittOS paper
// (SOSP '17) from the simulation-backed reproduction.
//
// Usage:
//
//	mittbench -list
//	mittbench -run fig5            # one experiment, quick scale
//	mittbench -run all -full       # everything at paper scale
//	mittbench -run fig3 -csv out/  # also dump CDF series as CSV
//	mittbench -run all -j 8        # 8-way parallel, identical output
//	mittbench -run all -j 1        # force the serial reference schedule
//	mittbench -run failslow        # graceful degradation under injected faults
//	mittbench -run failslow -faults 'failslow node=1 at=2s for=4s x=8; crash node=2 at=4s for=2s'
//	mittbench -run fig4 -metrics   # per-leg counters/histograms (§7.6 error)
//	mittbench -run fig4 -metrics -trace-ios 100   # + first 100 IO spans (JSONL)
//	mittbench -run fig4 -metrics -metrics-json m.json   # snapshots as JSON
//	mittbench -run loadsweep       # offered-load sweep: attainment/goodput curves
//	mittbench -run loadsweep -rates 0.5,0.9,1.1   # custom ×-saturation multipliers
//	mittbench -run loadsweep -sweep-json sweep.json   # per-cell results as JSON
//
// Every run is deterministic: the same flags produce identical output.
// -j only bounds the worker pool the independent simulation legs run on
// (and, for -run all, how many experiments are in flight at once); it
// never changes the bytes printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"mittos"
	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/experiments"
	"mittos/internal/faults"
	"mittos/internal/kv"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

func main() {
	var (
		run  = flag.String("run", "", "experiment id (see -list), or 'all'")
		list = flag.Bool("list", false, "list experiment ids and exit")
		full = flag.Bool("full", false, "paper-scale runs (default: quick scale)")
		csv  = flag.String("csv", "", "directory to write per-series CDF CSVs into")
		plot = flag.Bool("plot", false, "render each experiment's CDFs as an ASCII chart")
		seed = flag.Int64("seed", 1, "simulation seed (same seed = identical output)")
		jobs = flag.Int("j", 0, "worker pool size for parallel simulation legs (0 = one per CPU, 1 = serial); output is identical for any value")

		faultsFlag = flag.String("faults", "", "fault schedule for -run failslow, e.g. 'failslow node=1 at=2s for=4s x=8; crash node=2 at=4s for=2s' (default: the experiment's built-in scenario)")

		ratesFlag = flag.String("rates", "", "comma-separated offered-load multipliers (× measured saturation, each in [0.01, 3]) for -run loadsweep, e.g. '0.5,0.9,1.1' (default: the built-in 0.2→1.5 sweep)")
		sweepJSON = flag.String("sweep-json", "", "write the loadsweep experiment's per-cell results (throughput, percentiles, attainment, diagnostics) as a JSON array to this file")

		metricsOn   = flag.Bool("metrics", false, "collect per-layer counters/histograms and print an end-of-run dump per leg (fig4, fig7)")
		traceIOs    = flag.Int("trace-ios", 0, "with -metrics: capture the first N per-IO spans per leg and print them as JSONL (<0 = all)")
		metricsJSON = flag.String("metrics-json", "", "with -metrics: also write every snapshot as a JSON array to this file")
		benchJSON   = flag.String("bench-json", "", "run the headline benchmarks in-process and write ns/op, B/op, allocs/op as JSON to this file, then exit")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")
		memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this file (allocation sites need no extra flag: virtual time makes every run a profiling run)")
	)
	flag.Parse()

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()
	fail := func(err error, code int) {
		fmt.Fprintln(os.Stderr, err)
		stopProfiles()
		os.Exit(code)
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fail(err, 1)
		}
		return
	}

	if *list || *run == "" {
		fmt.Println("experiments (pass one to -run, or 'all'):")
		for _, id := range mittos.Experiments() {
			fmt.Printf("  %s\n", id)
		}
		if *run == "" && !*list {
			stopProfiles()
			os.Exit(2)
		}
		return
	}

	if *faultsFlag != "" {
		if _, err := faults.ParseSchedule(*faultsFlag); err != nil {
			fail(err, 2)
		}
	}

	rates, err := parseRates(*ratesFlag)
	if err != nil {
		fail(err, 2)
	}

	ids := []string{*run}
	if *run == "all" {
		ids = mittos.Experiments()
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Fan out across whole experiments too (they are independent), capped
	// at the same -j bound. Output is buffered per experiment and printed
	// in declaration order, so `-run all -j 8` emits the same bytes as a
	// serial run — only the "(regenerated ...)" timing lines differ.
	type outcome struct {
		text    string
		metrics []*metrics.Snapshot
		sweep   []experiments.SweepPoint
		err     error
	}
	outs := make([]outcome, len(ids))
	done := make([]chan struct{}, len(ids))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, workers)
	for i, id := range ids {
		i, id := i, id
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			defer close(done[i])
			start := time.Now()
			var msBefore, msAfter runtime.MemStats
			runtime.ReadMemStats(&msBefore)
			res, err := mittos.RunExperimentConfig(id, mittos.ExperimentConfig{
				Quick: !*full, Seed: *seed, Workers: workers,
				Metrics: *metricsOn, TraceIOs: *traceIOs, Faults: *faultsFlag,
				Rates: rates,
			})
			if err != nil {
				outs[i].err = err
				return
			}
			runtime.ReadMemStats(&msAfter)
			var b strings.Builder
			fmt.Fprintln(&b, res)
			if *plot && len(res.Series) > 0 {
				fmt.Fprintln(&b, res.Plot(72, 18))
			}
			if *metricsOn {
				writeMetrics(&b, res)
			}
			// GC stats ride the timing line — the one line already excluded
			// from the "identical bytes" determinism contract. (With -j > 1
			// experiments overlap, so the deltas attribute concurrent
			// allocation to whoever was running; still the right order of
			// magnitude for spotting an experiment-scale GC storm.)
			fmt.Fprintf(&b, "(regenerated %s in %v; heap %s, %d GCs, %v GC pause)\n\n",
				id, time.Since(start).Round(time.Millisecond),
				formatBytes(msAfter.HeapAlloc),
				msAfter.NumGC-msBefore.NumGC,
				time.Duration(msAfter.PauseTotalNs-msBefore.PauseTotalNs).Round(10*time.Microsecond))
			outs[i].text = b.String()
			outs[i].metrics = res.Metrics
			outs[i].sweep = res.Sweep
			if *csv != "" {
				// Experiments write disjoint <id>-prefixed files; safe
				// to dump concurrently.
				outs[i].err = dumpCSV(*csv, res)
			}
		}()
	}
	var allSnaps []*metrics.Snapshot
	var allSweep []experiments.SweepPoint
	for i := range ids {
		<-done[i]
		if outs[i].err != nil {
			fail(outs[i].err, 1)
		}
		fmt.Print(outs[i].text)
		allSnaps = append(allSnaps, outs[i].metrics...)
		allSweep = append(allSweep, outs[i].sweep...)
	}
	if *metricsJSON != "" {
		if err := dumpMetricsJSON(*metricsJSON, allSnaps); err != nil {
			fail(err, 1)
		}
	}
	if *sweepJSON != "" {
		if err := dumpSweepJSON(*sweepJSON, allSweep); err != nil {
			fail(err, 1)
		}
	}
}

// parseRates parses the -rates flag: comma-separated finite multipliers in
// [experiments.MinSweepRate, experiments.MaxSweepRate].
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-rates: %w", err)
		}
		if err := experiments.CheckSweepRate(v); err != nil {
			return nil, fmt.Errorf("-rates: %w", err)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

// dumpSweepJSON writes the loadsweep cells (experiments in print order,
// cells in table order) as one JSON array.
func dumpSweepJSON(path string, points []experiments.SweepPoint) error {
	if points == nil {
		points = []experiments.SweepPoint{}
	}
	j, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(j, '\n'), 0o644)
}

// startProfiles wires -cpuprofile/-memprofile and returns the idempotent
// finisher that stops the CPU profile and writes the heap snapshot.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
}

// benchSink defeats dead-code elimination in the SeekCost benchmark.
var benchSink time.Duration

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// benchResult is one headline benchmark's record in the -bench-json dump.
// The GC fields come from runtime.ReadMemStats deltas taken around the
// testing.Benchmark call: NumGC and GCPauseNs cover every trial run the
// harness made (N grows geometrically, so the final run dominates), and
// GCPauseNsPerOp divides the total pause by the final iteration count —
// an upper bound on the per-op pause cost, steady enough to gate on.
// HeapAllocBytes is the live heap right after the benchmark, with the
// preceding benchmarks' garbage already collected: what the benchmark's
// working set (pools, arenas, profiles) permanently retains.
type benchResult struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	NumGC          uint32  `json:"num_gc"`
	GCPauseNs      uint64  `json:"gc_pause_ns"`
	GCPauseNsPerOp float64 `json:"gc_pause_ns_per_op"`
}

// runBenchJSON executes the headline benchmarks in-process (the same bodies
// as the go-test benchmarks) and writes their ns/op and allocation profile
// as a JSON array — the machine-readable artifact CI archives per commit.
func runBenchJSON(path string) error {
	var results []benchResult
	add := func(name string, fn func(b *testing.B)) {
		// Settle the previous benchmark's garbage so each measurement
		// starts from a quiet heap instead of inheriting GC debt.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := testing.Benchmark(fn)
		runtime.ReadMemStats(&after)
		res := benchResult{
			Name:           name,
			Iterations:     r.N,
			NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
			HeapAllocBytes: after.HeapAlloc,
			NumGC:          after.NumGC - before.NumGC,
			GCPauseNs:      after.PauseTotalNs - before.PauseTotalNs,
		}
		if r.N > 0 {
			res.GCPauseNsPerOp = float64(res.GCPauseNs) / float64(r.N)
		}
		results = append(results, res)
		fmt.Printf("%-24s %12.1f ns/op %12d B/op %8d allocs/op %6d GCs %10.1f GC-pause-ns/op\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.NumGC, res.GCPauseNsPerOp)
	}

	add("Fig4", func(b *testing.B) {
		b.ReportAllocs()
		opt := experiments.QuickFig4Options()
		opt.Duration = 4 * time.Second
		for i := 0; i < b.N; i++ {
			experiments.Fig4(opt)
		}
	})

	add("AdmissionDecision", func(b *testing.B) {
		b.ReportAllocs()
		eng := mittos.NewEngine()
		s := mittos.NewStack(eng, mittos.StackConfig{
			Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerNoop, Mitt: true, Seed: 1})
		for i := 0; i < 16; i++ {
			s.Read(int64(i+1)*(40<<30), 1<<20, 0, func(error) {})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.PredictWait(int64(i%900)<<30, 4096)
		}
	})

	add("EngineThroughput", func(b *testing.B) {
		b.ReportAllocs()
		eng := mittos.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				eng.After(time.Microsecond, tick)
			}
		}
		eng.After(time.Microsecond, tick)
		b.ResetTimer()
		eng.Run()
	})

	// Hedged-style schedule-then-cancel churn, timing wheel vs the retained
	// min-heap oracle (same bodies as BenchmarkEngineCancelHeavy).
	const (
		cancelStreams = 4096
		cancelTickGap = 3 * time.Microsecond
		cancelTimeout = 30 * time.Millisecond
	)
	add("EngineCancelHeavy/wheel", func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEngine()
		nop := func() {}
		timeouts := make([]*sim.Event, cancelStreams)
		n, cur := 0, 0
		var tick func()
		tick = func() {
			s := cur
			cur = (cur + 1) % cancelStreams
			if timeouts[s] != nil {
				timeouts[s].Cancel()
			}
			timeouts[s] = eng.Schedule(cancelTimeout, nop)
			n++
			if n < b.N {
				eng.After(cancelTickGap, tick)
			}
		}
		eng.After(cancelTickGap, tick)
		b.ResetTimer()
		eng.Run()
	})
	add("EngineCancelHeavy/heap", func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEventHeap()
		nop := func() {}
		timeouts := make([]*sim.HeapEvent, cancelStreams)
		n, cur := 0, 0
		var tick func()
		tick = func() {
			s := cur
			cur = (cur + 1) % cancelStreams
			if timeouts[s] != nil {
				timeouts[s].Cancel()
			}
			timeouts[s] = eng.Schedule(cancelTimeout, nop)
			n++
			if n < b.N {
				eng.After(cancelTickGap, tick)
			}
		}
		eng.After(cancelTickGap, tick)
		b.ResetTimer()
		eng.Run()
	})

	// µs device events interleaved with ms/s deadlines — the cascade-heavy
	// shape of a real experiment leg (same bodies as
	// BenchmarkEngineMixedHorizon).
	add("EngineMixedHorizon/wheel", func(b *testing.B) {
		b.ReportAllocs()
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
		b.ResetTimer()
		eng.Run()
	})
	add("EngineMixedHorizon/heap", func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEventHeap()
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
		b.ResetTimer()
		eng.Run()
	})

	for _, procs := range []int{4, 32, 256} {
		procs := procs
		add(fmt.Sprintf("PredictWaitCFQ/%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			eng := mittos.NewEngine()
			s := mittos.NewStack(eng, mittos.StackConfig{
				Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
			var ids blockio.IDGen
			for p := 0; p < procs; p++ {
				for k := 0; k < 2; k++ {
					req := &mittos.Request{ID: ids.Next(), Op: mittos.OpRead,
						Offset: int64(p*7+k+1) * (1 << 30), Size: 1 << 20, Proc: p + 2}
					s.Target().SubmitSLO(req, func(error) {})
				}
			}
			_ = s.PredictWait(100<<30, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.PredictWait(int64(i%900)<<30, 4096)
			}
		})
	}

	add("YCSBMix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Run("ycsbmix", experiments.RunConfig{Quick: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})

	add("LoadSweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Run("loadsweep", experiments.RunConfig{Quick: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})

	add("PutAdmission", func(b *testing.B) {
		b.ReportAllocs()
		eng := mittos.NewEngine()
		s := mittos.NewStack(eng, mittos.StackConfig{
			Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
		cfg := kv.DefaultConfig(0, 100<<30)
		cfg.MemtableCap = 1 << 30 // isolate the WAL path: never flush
		var ids blockio.IDGen
		st := kv.New(eng, cfg, s.Target(), &ids)
		done := func(error) {}
		put := func() {
			st.PutDurable(7, time.Second, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ {
			put()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			put()
		}
	})

	add("CFQSubmitDispatch", func(b *testing.B) {
		b.ReportAllocs()
		eng := mittos.NewEngine()
		s := mittos.NewStack(eng, mittos.StackConfig{
			Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
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
		for i := 0; i < 64; i++ {
			submit(int64(i+1) * (10 << 30))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(int64(i%900) << 30)
		}
	})

	add("SeekCost", func(b *testing.B) {
		b.ReportAllocs()
		prof := disk.ProfileTwin(disk.DefaultConfig(), 42, disk.DefaultProfilerOptions())
		b.ResetTimer()
		var sink time.Duration
		for i := 0; i < b.N; i++ {
			sink += prof.SeekCost(int64(i%997) << 27)
		}
		benchSink = sink
	})

	j, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(j, '\n'), 0o644)
}

// writeMetrics renders each leg's snapshot: the deterministic text dump,
// then any captured per-IO spans as JSONL.
func writeMetrics(b *strings.Builder, res *mittos.ExperimentResult) {
	for _, snap := range res.Metrics {
		b.WriteString(snap.String())
		for _, sp := range snap.Spans {
			j, err := json.Marshal(sp)
			if err != nil {
				fmt.Fprintf(b, "span: %v\n", err)
				continue
			}
			b.Write(j)
			b.WriteByte('\n')
		}
	}
}

// dumpMetricsJSON writes every snapshot (experiments in print order, legs
// in declaration order) as one JSON array.
func dumpMetricsJSON(path string, snaps []*metrics.Snapshot) error {
	if snaps == nil {
		snaps = []*metrics.Snapshot{}
	}
	j, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(j, '\n'), 0o644)
}

// dumpCSV writes each series' CDF as <dir>/<id>-<series>.csv with
// latency-milliseconds, cumulative-probability rows.
func dumpCSV(dir string, res *mittos.ExperimentResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range res.Series {
		name := strings.NewReplacer("/", "_", "%", "pct", "(", "", ")", "").Replace(s.Name)
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", res.ID, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "latency_ms,cumulative_probability")
		for _, pt := range s.CDF(200) {
			fmt.Fprintf(f, "%.4f,%.5f\n", float64(pt.Latency)/1e6, pt.P)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
