// Command mittperf is the repository's benchmark: four workloads that
// measure how fast the MittOS simulator runs (host time and memory per
// simulated request), check that what it simulates is correct, and, in a
// separate traced run, attribute host time to each layer.
//
// Run it from the repository root; bench/run.sh builds it and passes its
// arguments on:
//
//	mittperf                                        every workload, each in its own process
//	mittperf -workload fleet-get -seed 1 -seconds 25
//	mittperf -workload node-ssd -seconds 25 -trace 1  per-layer ledger and a Chrome trace
//	mittperf -compare PARENT_DIR CHANGE_DIR         verdicts over saved runs
//	mittperf -compare [-record] DIR                 one side's medians and quartiles
//	mittperf -calibrate                             re-measure the frozen inputs
//
// The last line of a workload run's standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}; bench/README.md describes
// the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a timed run reports (tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"alloc_mb", "MiB"},
	{"live_heap_mb", "MiB"},
}

// cpuLayers are the buckets of the CPU-profile attribution: the internal
// packages, the garbage collector, the rest of the runtime, and the
// benchmark's own code.
var cpuLayers = []string{
	"sim", "cluster", "netsim", "kv", "core", "iosched", "disk", "ssd", "oscache",
	"noise", "stats", "ycsb", "blockio", "metrics", "trace", "experiments",
	"vmm", "smr", "faults", "nosqlsurvey", "runtime.gc", "runtime.other", "bench",
}

// countMetrics are per-layer counters read from public accessors after each
// leg and summed over one pass.
var countMetrics = []string{
	"sim.events", "sim.cancelled", "sim.cascades", "sim.max_pending",
	"cluster.wasted", "cluster.busy_heard", "cluster.copies",
	"netsim.msgs",
	"kv.gets", "kv.puts", "kv.flushes", "kv.compactions", "kv.wal_groups", "kv.put_retries",
	"core.rejects",
	"disk.ops",
	"ssd.reads", "ssd.writes", "ssd.erases",
	"oscache.hits", "oscache.misses", "oscache.evictions",
	"noise.ios",
}

// tracedSpans are the span kinds whose self time is reported as a share of
// the traced passes' run time.
var tracedSpans = []spanKind{
	spanClusterGet, spanClusterGetCB, spanClusterPut, spanClusterPutCB,
	spanKVGet, spanKVPut, spanCoreSubmit, spanBlockSubmit, spanNoiseSubmit, spanWindow,
}

// setupCtors are the set-up constructors timed by setup spans.
var setupCtors = []string{
	"NewNetwork", "NewCluster", "NewBursty", "ycsb.New", "NewClient",
	"ssd.New", "NewMittSSD", "oscache.New", "NewMittCache", "kv.New", "Preload",
}

// perLayer lists every metric a traced run reports, in order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_pct", "%"})
	}
	for _, c := range countMetrics {
		out = append(out, metricDef{c, "count"})
	}
	out = append(out,
		metricDef{"sim.events_per_s", "1/s"},
		metricDef{"sim.vsec_per_s", "s/s"},
		metricDef{"cluster.useful_frac", "ratio"},
		metricDef{"kv.puts_per_group", "ratio"},
		metricDef{"core.reject_frac", "ratio"},
		metricDef{"oscache.hit_frac", "ratio"},
	)
	for _, k := range tracedSpans {
		out = append(out, metricDef{"span." + spanNames[k] + ".self_pct", "%"})
	}
	for _, c := range setupCtors {
		out = append(out, metricDef{"setup." + c + "_pct", "%"})
	}
	for _, id := range suiteIDs() {
		out = append(out, metricDef{"experiments." + id + "_pct", "%"})
	}
	out = append(out,
		metricDef{"runtime.gc_count", "count"},
		metricDef{"runtime.max_rss_mb", "MiB"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return out
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (fleet-get, fleet-put, node-ssd, paper-suite); empty runs each in its own process")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 10, "how long one workload run measures")
		trace     = flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
		outDir    = flag.String("out", ".bench_build/out", "directory for Chrome traces")
		compare   = flag.Bool("compare", false, "compare saved runs: arguments are one or two directories of run outputs")
		record    = flag.Bool("record", false, "with -compare DIR: store the distributions as the baseline in "+calibrationPath)
		calibrate = flag.Bool("calibrate", false, "re-measure the frozen workload inputs and digests and rewrite "+calibrationPath)
		pass      = flag.String("pass", "", "run one pass of -workload (timed, profiled, or traced) and print its record; used by the run itself")
		chrome    = flag.String("chrome", "", "with -pass traced: write the Chrome trace here")
		startup   = flag.Bool("startup", false, "exit as soon as the process has started (paper-suite's set-up probe)")
	)
	flag.Parse()
	switch {
	case *startup:
	case *compare:
		os.Exit(runCompare(flag.Args(), *record))
	case *calibrate:
		if err := runCalibrate(); err != nil {
			fmt.Fprintln(os.Stderr, "mittperf:", err)
			os.Exit(1)
		}
	case *pass != "":
		if err := runChildPass(*workload, *seed, passKind(*pass), *chrome); err != nil {
			fmt.Fprintln(os.Stderr, "mittperf:", err)
			os.Exit(1)
		}
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *trace))
	default:
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, *outDir))
	}
}

// runAll runs every workload in its own process.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "mittperf: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runChildPass runs one pass in this process and prints its record.
func runChildPass(name string, seed int64, kind passKind, chrome string) error {
	cal, err := loadCalibration()
	if err != nil {
		return err
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if kind != passTimed && kind != passProfiled && kind != passTraced {
		return fmt.Errorf("unknown pass kind %q", kind)
	}
	rec, t := runPass(w.legs(cal, seed), kind)
	if t != nil && chrome != "" {
		if err := t.writeChrome(chrome); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed int64, seconds float64, traced bool, outDir string) int {
	cal, err := loadCalibration()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	if _, ok := findWorkload(name); !ok {
		fmt.Fprintf(os.Stderr, "mittperf: unknown workload %q\n", name)
		return 2
	}
	opt := runOptions{seconds: seconds, traced: traced}
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mittperf:", err)
			return 2
		}
		opt.chrome = filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	}
	fmt.Printf("mittperf workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	r, err := runWorkload(name, seed, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}

	errs := r.check()
	first := r.passes[0]
	if want, ok := cal.Digests[name][fmt.Sprint(seed)]; ok {
		if got := fmt.Sprintf("%016x", first.Digest); got != want {
			errs = append(errs, fmt.Errorf("digest %s, want %s (%s)", got, want, calibrationPath))
		}
	}
	res := result{Correct: len(errs) == 0, Metrics: map[string]metricValue{}}
	for _, p := range r.passes {
		res.Attempted += p.Issued
		res.Failed += p.Failed
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}

	for i, p := range r.passes {
		fmt.Printf("pass %d %-8s setup %.3fs run %.3fs alloc %.1fMiB heap %.1fMiB gcs %d issued %d finished %d failed %d events %d digest %016x\n",
			i, p.Kind, p.Setup.Seconds(), p.run().Seconds(), float64(p.Alloc)/(1<<20), float64(p.Heap)/(1<<20),
			p.GCs, p.Issued, p.Finished, p.Failed, p.Events, p.Digest)
	}
	for i, l := range first.LegNames {
		fmt.Printf("  leg %-14s digest %016x\n", l, first.LegDigests[i])
	}
	for _, e := range errs {
		fmt.Println("CHECK FAILED:", e)
	}
	fmt.Printf("ops %d failed %d fail_frac %.6f\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))

	if traced {
		layer := tracedMetrics(r)
		printTrace(r, layer)
		fmt.Println("chrome trace:", opt.chrome)
		for _, m := range perLayer() {
			res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
	} else {
		e := r.e2e()
		for _, m := range endToEnd {
			fmt.Printf("%-14s %14.6f %s\n", m.name, e[m.name], m.unit)
			res.Metrics[m.name] = metricValue{e[m.name], m.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuShares sums the profiled passes' CPU time per layer, in percent.
func cpuShares(r *runResult) (pct map[string]float64, totalNs int64) {
	lp := newLayerProfile()
	for _, p := range r.passes {
		for k, v := range p.CPU { //mapiter:sorted
			lp.ns[k] += v
			lp.total += v
		}
	}
	return lp.pct(), lp.total
}

// tracedMetrics derives every per-layer metric of a traced run.
func tracedMetrics(r *runResult) map[string]float64 {
	m := map[string]float64{}
	pct, _ := cpuShares(r)
	for k, v := range pct { //mapiter:sorted
		m[k+".cpu_pct"] = v
	}
	// Counts are deterministic, so one pass gives them all; a traced one,
	// because only its shims count noise IOs.
	c := r.passes[1].Counts
	for _, k := range countMetrics {
		m[k] = c[k]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["cluster.useful_frac"] = ratio(c["cluster.finished"], c["cluster.copies"])
	m["kv.puts_per_group"] = ratio(c["kv.puts"], c["kv.wal_groups"])
	m["core.reject_frac"] = ratio(c["core.rejects"], c["core.rejects"]+c["core.admits"])
	m["oscache.hit_frac"] = ratio(c["oscache.hits"], c["oscache.hits"]+c["oscache.misses"])

	var profiledRun, tracedRun, gcs []float64
	var events, vsec, runSec, tracedRunNs, tracedSetupNs float64
	for _, p := range r.passes {
		run := p.run().Seconds()
		if p.Kind == passTraced {
			tracedRun = append(tracedRun, run)
			tracedRunNs += float64(p.run())
			tracedSetupNs += float64(p.Setup)
			continue
		}
		profiledRun = append(profiledRun, run)
		gcs = append(gcs, float64(p.GCs))
		events += float64(p.Events)
		vsec += p.VSec
		runSec += run
	}
	m["sim.events_per_s"] = ratio(events, runSec)
	m["sim.vsec_per_s"] = ratio(vsec, runSec)
	m["trace.overhead_pct"] = 100 * (ratio(median(tracedRun), median(profiledRun)) - 1)
	m["runtime.gc_count"] = median(gcs)
	m["runtime.max_rss_mb"] = float64(r.maxRSS) / 1024 // Linux reports KiB

	for _, p := range r.passes {
		for _, row := range p.Spans {
			switch {
			case strings.HasPrefix(row.Name, "setup."):
				m[row.Name+"_pct"] += 100 * ratio(float64(row.TotalNs), tracedSetupNs)
			case strings.HasPrefix(row.Name, "experiment."):
				m["experiments."+strings.TrimPrefix(row.Name, "experiment.")+"_pct"] += 100 * ratio(float64(row.TotalNs), tracedRunNs)
			default:
				m["span."+row.Name+".self_pct"] += 100 * ratio(float64(row.TotalNs), tracedRunNs)
			}
		}
	}
	return m
}

// printTrace prints the traced run's tables: CPU share by layer, and the
// first traced pass's span self times.
func printTrace(r *runResult, m map[string]float64) {
	pct, total := cpuShares(r)
	fmt.Println("cpu share of the profiled run phases, by layer:")
	type share struct {
		layer string
		pct   float64
	}
	var rows []share
	sum := 0.0
	for k, v := range pct { //mapiter:sorted
		rows = append(rows, share{k, v})
		sum += v
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].pct > rows[j].pct || rows[i].pct == rows[j].pct && rows[i].layer < rows[j].layer
	})
	for _, row := range rows {
		fmt.Printf("  %-14s %6.2f%%\n", row.layer, row.pct)
	}
	fmt.Printf("  %-14s %6.2f%% (%d ms profiled)\n", "total", sum, total/1e6)

	var profiledRun []float64
	for _, p := range r.timed() {
		profiledRun = append(profiledRun, p.run().Seconds())
	}
	if ops := m["disk.ops"]; ops > 0 {
		fmt.Printf("  disk.host_ns_per_op %.1f\n", m["disk.cpu_pct"]/100*median(profiledRun)*1e9/ops)
	}
	for _, p := range r.passes {
		if p.Kind != passTraced {
			continue
		}
		fmt.Println("span self time (first traced pass):")
		fmt.Printf("  %-28s %10s %10s %10s %12s\n", "span", "n", "p50 ns", "p99 ns", "self ms")
		for _, row := range p.Spans {
			fmt.Printf("  %-28s %10d %10.0f %10.0f %12.3f\n", row.Name, row.N, row.P50, row.P99, float64(row.TotalNs)/1e6)
		}
		if w := p.Windows; w.N > 0 {
			fmt.Printf("  sim.window (%v virtual) host time: n %d p50 %.3f ms p99 %.3f ms\n",
				traceWindow, w.N, w.P50/1e6, w.P99/1e6)
		}
		break
	}
	fmt.Println("per-layer metrics:")
	for _, d := range perLayer() {
		fmt.Printf("  %-32s %16.4f %s\n", d.name, m[d.name], d.unit)
	}
}
