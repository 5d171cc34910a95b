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
	"time"

	"mittos"
	"mittos/internal/experiments"
	"mittos/internal/metrics"
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

	if err := experiments.CheckFaults(*faultsFlag, !*full); err != nil {
		fail(fmt.Errorf("-faults: %w", err), 2)
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
