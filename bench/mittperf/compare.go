package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// -compare reads saved run outputs (a run's whole standard output per file)
// and judges each workload × end-to-end metric. With one directory it
// prints each metric's median, quartiles, and relative spread; with -record
// it stores them as the baseline in bench/calibration.json. With two
// directories (parent first, change second) it prints each side's median
// and quartiles, the change's pair win rate, and a verdict against the
// bound in BENCHMARK.json. Runs pair by position: a side's runs of one
// workload in file-name order, the i-th parent run with the i-th change
// run, so runs taken next to each other (alternating which side goes
// first) share the host's noise phase. The verdicts:
//
//   - regression: a change run failed its correctness checks or failed a
//     larger share of its operations than the parent's runs did, whatever
//     the timings; or the change's median is worse than the parent's by
//     more than the bound;
//   - unresolved: either side's spread (quartile distance over median) is
//     wider than the bound, and the change does not read better on every
//     run;
//   - improved: the change wins at least nine tenths of the pairs and the
//     medians differ by more than the parent's quartile distance;
//   - no-worse: otherwise.

// savedRun is one parsed run output.
type savedRun struct {
	workload string
	res      result
}

func loadRuns(dir string) (map[string][]savedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	out := map[string][]savedRun{}
	for _, f := range files {
		run, ok, err := parseRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if ok {
			out[run.workload] = append(out[run.workload], run)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no timed run outputs", dir)
	}
	return out, nil
}

// parseRun reads a run's header line and final JSON line; traced runs and
// files that are not run outputs are skipped.
func parseRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var run savedRun
	var last string
	traced := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "mittperf "); ok && run.workload == "" {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					run.workload = v
				case "trace":
					traced = v == "true"
				}
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, false, err
	}
	if run.workload == "" || traced {
		return savedRun{}, false, nil
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return savedRun{}, false, fmt.Errorf("last line is not a result: %w", err)
	}
	return run, true, nil
}

// benchMetric is one end_to_end entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds() (map[string]benchMetric, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]benchMetric{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// quartiles returns the first quartile, median, and third quartile exactly
// as Python's statistics.quantiles(xs, n=4) computes them (the default
// exclusive method, extrapolating at the ends of small samples).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func metricValues(runs []savedRun, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.res.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func runCompare(args []string, record bool) int {
	if len(args) < 1 || len(args) > 2 || record && len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: mittperf -compare [-record] DIR | -compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	if len(args) == 1 {
		return summarize(a, bounds, record)
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-12s %-14s %32s %32s %6s %7s %s\n", "workload", "metric",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "delta", "wins", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			bm, ok := bounds[m.name]
			xa, xb := metricValues(ra, m.name), metricValues(rb, m.name)
			if !ok || len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(bm, ra, rb)
			if v.label != "improved" && v.label != "no-worse" {
				code = 1
			}
			fmt.Printf("%-12s %-14s %32s %32s %+5.1f%% %7s %s\n", w.name, m.name,
				fmtDist(xa), fmtDist(xb), 100*v.delta, v.wins, v.label)
		}
	}
	return code
}

func fmtDist(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

// better reports whether x reads better than y for the metric.
func better(m benchMetric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// pairWins pairs the i-th parent run with the i-th change run and counts
// the change's wins; ties count for neither side.
func pairWins(m benchMetric, ra, rb []savedRun) (wins, pairs int) {
	for i := 0; i < min(len(ra), len(rb)); i++ {
		va, oka := ra[i].res.Metrics[m.Name]
		vb, okb := rb[i].res.Metrics[m.Name]
		if !oka || !okb {
			continue
		}
		pairs++
		if better(m, vb.Value, va.Value) {
			wins++
		}
	}
	return wins, pairs
}

// failFrac is a run's failed share of its attempted operations.
func failFrac(r savedRun) float64 {
	return float64(r.res.Failed) / float64(max(r.res.Attempted, 1))
}

// failsMore reports whether a change run failed its correctness checks or
// failed a larger share of its operations than the parent's runs together.
func failsMore(ra, rb []savedRun) bool {
	var failed, attempted int
	for _, r := range ra {
		failed += r.res.Failed
		attempted += r.res.Attempted
	}
	parent := float64(failed) / float64(max(attempted, 1))
	for _, r := range rb {
		if !r.res.Correct || failFrac(r) > parent {
			return true
		}
	}
	return false
}

type verdictResult struct {
	label string
	delta float64 // relative change of the median, signed as measured
	wins  string
}

// verdict judges one workload × metric over the two sides' runs.
func verdict(m benchMetric, ra, rb []savedRun) verdictResult {
	xa, xb := metricValues(ra, m.Name), metricValues(rb, m.Name)
	wins, pairs := pairWins(m, ra, rb)
	q1a, meda, q3a := quartiles(xa)
	q1b, medb, q3b := quartiles(xb)
	spread := max((q3a-q1a)/meda, (q3b-q1b)/medb)
	v := verdictResult{delta: (medb - meda) / meda, wins: fmt.Sprintf("%d/%d", wins, pairs)}
	worse := v.delta
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range xb {
		for _, y := range xa {
			if !better(m, x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case failsMore(ra, rb):
		v.label = "regression (failures)"
	case spread > m.Bound && !allBetter:
		v.label = "unresolved"
	case worse > m.Bound:
		v.label = "regression"
	case pairs > 0 && 10*wins >= 9*pairs && worse < 0 && -worse*meda > q3a-q1a:
		v.label = "improved"
	default:
		v.label = "no-worse"
	}
	return v
}

// summarize prints one side's distributions and, with record, stores them
// as the baseline.
func summarize(runs map[string][]savedRun, bounds map[string]benchMetric, record bool) int {
	base := map[string]map[string]baselineStat{}
	fmt.Printf("%-12s %-14s %12s %12s %12s %4s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "n", "iqr/med", "bound")
	for _, w := range workloads {
		runs := runs[w.name]
		if len(runs) == 0 {
			continue
		}
		base[w.name] = map[string]baselineStat{}
		for _, m := range endToEnd {
			xs := metricValues(runs, m.name)
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			base[w.name][m.name] = baselineStat{Median: med, Q1: q1, Q3: q3, N: len(xs)}
			fmt.Printf("%-12s %-14s %12.6g %12.6g %12.6g %4d %7.2f%% %7.0f%%\n", w.name, m.name,
				med, q1, q3, len(xs), 100*(q3-q1)/med, 100*bounds[m.name].Bound)
		}
	}
	if !record {
		return 0
	}
	cal, err := loadCalibration()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	cal.Baseline = base
	if err := cal.save(); err != nil {
		fmt.Fprintln(os.Stderr, "mittperf:", err)
		return 2
	}
	return 0
}
