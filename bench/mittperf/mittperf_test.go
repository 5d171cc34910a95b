package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"mittos/internal/stats"
)

// The tests run from the repository root, where the benchmark itself runs.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// tinyLegs shrinks a composed workload to two short legs.
func tinyLegs(t *testing.T, cal *calibration, name string, seed int64) []leg {
	t.Helper()
	if name == "node-ssd" {
		return nodeSSDLegs(seed, 2, 2*time.Second)
	}
	c := *cal
	c.Fleet.GetLegMs, c.Fleet.PutLegMs = 2000, 2000
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	ls := w.legs(&c, seed)
	if len(ls) > 2 {
		// The most involved strategies: hedging's timer churn at the lower
		// rate, MittOS's EBUSY failovers at the higher.
		ls = []leg{ls[2], ls[len(ls)-1]}
	}
	return ls
}

// TestTracingDoesNotPerturb runs every composed workload at tiny scale with
// 1 ms virtual windows and every shim, and again as one RunFor per phase
// with no shims: the simulated results must be identical, and every issued
// request must have reached exactly one terminal by the end of the drain.
func TestTracingDoesNotPerturb(t *testing.T) {
	cal, err := loadCalibration()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fleet-get", "fleet-put", "node-ssd"} {
		for _, seed := range []int64{cal.DevSeed, cal.HeldOutSeed} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				for _, l := range tinyLegs(t, cal, name, seed) {
					plain := l.build(nil)
					plain.run(nil, 0)
					want := plain.result()

					tr := newTracer()
					traced := l.build(tr)
					traced.run(tr, time.Millisecond)
					got := traced.result()

					if got.digest != want.digest {
						t.Errorf("leg %s: traced digest %016x, untraced %016x", l.name, got.digest, want.digest)
					}
					if want.issued == 0 || want.finished != want.issued {
						t.Errorf("leg %s: issued %d, finished %d after the drain", l.name, want.issued, want.finished)
					}
					if want.failed != 0 {
						t.Errorf("leg %s: %d failed operations", l.name, want.failed)
					}
					if len(tr.stack) != 0 {
						t.Errorf("leg %s: %d spans left open", l.name, len(tr.stack))
					}
					if tr.kinds[spanWindow].n < 2000 {
						t.Errorf("leg %s: only %d windows", l.name, tr.kinds[spanWindow].n)
					}
				}
			})
		}
	}
}

// busyStats keeps a CPU busy inside the stats package (sorting samples).
func busyStats(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		s := stats.NewSample(1 << 14)
		x := uint64(88172645463325252)
		for i := 0; i < 1<<14; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.Add(time.Duration(x % 1e9))
		}
		s.Percentile(99)
	}
}

var sink uint64

// busyBench keeps a CPU busy in the benchmark's own code.
func busyBench(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := uint64(0); i < 1e6; i++ {
			sink = sink*6364136223846793005 + i
		}
	}
}

// TestProfileAttribution captures real CPU profiles of busy loops and checks
// the stdlib-only reader attributes them to the right layer.
func TestProfileAttribution(t *testing.T) {
	for _, tc := range []struct {
		layer string
		busy  func(time.Duration)
	}{
		{"stats", busyStats},
		{"bench", busyBench},
	} {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		tc.busy(400 * time.Millisecond)
		pprof.StopCPUProfile()
		lp := newLayerProfile()
		if err := lp.addProfile(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		// Judge the layer's share of the samples that have a module frame:
		// under the race detector most samples sit in its runtime, with no
		// Go frames at all.
		inModule := lp.total - lp.ns["runtime.other"] - lp.ns["runtime.gc"]
		if share := float64(lp.ns[tc.layer]) / float64(inModule); inModule == 0 || share < 0.8 {
			t.Errorf("%s loop: %s has %.2f of %d ns with a module frame (%v)", tc.layer, tc.layer, share, inModule, lp.ns)
		}
		pct := lp.pct()
		sum := 0.0
		for _, v := range pct {
			sum += v
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s loop: layer shares sum to %.2f%%", tc.layer, sum)
		}
	}
}

func TestAttributeRule(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "mittos/internal/disk.(*Disk).next", "mittos/internal/sim.(*Engine).fire"}, "disk"},
		{[]string{"runtime.mapassign_fast64", "mittos/internal/kv.(*walGroup).done", "mittos/internal/core.(*MittCFQ).SubmitSLO"}, "kv"},
		{[]string{"time.now", "main.(*tracer).begin", "mittos/internal/cluster.(*Client).issueOne"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.mPark"}, "runtime.other"},
		{[]string{"mittos/internal/experiments.LoadSweep.func3"}, "experiments"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestLogHistQuantiles(t *testing.T) {
	var h logHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		exact := q * 100000
		if got := h.quantile(q); got < exact*0.94 || got > exact*1.06 {
			t.Errorf("quantile(%v) = %.0f, want within 6%% of %.0f", q, got, exact)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if [3]float64{q1, med, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, med, q3, tc.want)
		}
	}
}

// savedRuns makes correct, failure-free saved runs of run_s values. They
// carry no seed: a batch of repeated runs at one seed is paired by position.
func savedRuns(xs []float64) []savedRun {
	var out []savedRun
	for _, x := range xs {
		out = append(out, savedRun{workload: "fleet-get", res: result{
			Correct: true, Attempted: 1000,
			Metrics: map[string]metricValue{"run_s": {x, "s"}},
		}})
	}
	return out
}

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "run_s", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{shift(1), "no-worse"},
		{shift(1.2), "regression"},
		{shift(0.8), "improved"},
	} {
		if v := verdict(lower, savedRuns(parent), savedRuns(tc.change)); v.label != tc.want {
			t.Errorf("change ×%.1f: verdict %s, want %s", tc.change[0]/parent[0], v.label, tc.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v := verdict(lower, savedRuns(noisy), savedRuns(noisy)); v.label != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", v.label)
	}

	// A faster change whose runs fail is a regression, whatever the timings.
	incorrect := savedRuns(shift(0.8))
	incorrect[3].res.Correct = false
	if v := verdict(lower, savedRuns(parent), incorrect); v.label != "regression (failures)" {
		t.Errorf("a run failed its checks: verdict %s, want regression (failures)", v.label)
	}
	failing := savedRuns(shift(0.8))
	failing[0].res.Failed = 1
	if v := verdict(lower, savedRuns(parent), failing); v.label != "regression (failures)" {
		t.Errorf("more failed operations: verdict %s, want regression (failures)", v.label)
	}
}

// TestPairWinsByPosition pairs batches whose runs all share one seed: each
// change run meets the parent run at its own position.
func TestPairWinsByPosition(t *testing.T) {
	lower := benchMetric{Name: "run_s", Better: "lower", Bound: 0.1}
	parent := savedRuns([]float64{10, 20, 30, 40})
	change := savedRuns([]float64{9, 21, 29, 41, 1})
	if wins, pairs := pairWins(lower, parent, change); wins != 2 || pairs != 4 {
		t.Errorf("pairWins = %d/%d, want 2/4", wins, pairs)
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json in step with what the command
// prints.
func TestBenchmarkSpec(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, command %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
