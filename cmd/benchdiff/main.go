// Command benchdiff compares two files of `go test -bench -benchmem` output
// and fails (exit 1) when the head regressed against the base — the CI gate
// that keeps the admission path's measured budgets from silently eroding.
//
// Usage:
//
//	benchdiff base.txt head.txt
//
// Each file holds several runs of the same benchmarks, taken on one machine
// with the base and head test binaries alternating (cmd/benchdiff/ab.sh).
// For every benchmark on both sides benchdiff compares the per-benchmark
// median of each measure across runs, and fails when:
//
//   - allocs/op rises at all over a zero baseline (a pinned allocation-free
//     path), or by more than allocsSlackPct over a nonzero one (one-time
//     warm-up allocations move experiment-scale counts by a few parts in
//     ten thousand);
//   - B/op rises at all over a zero baseline, or by more than bytesSlackPct;
//   - gc-pause-ns/op rises by more than gcPauseSlackPct where the base reads
//     at least materialPauseNsPerOp;
//   - ns/op is slower by more than nsSlackPct and by more than the spread
//     between the base runs' own quartiles, and the head's lower quartile
//     sits above the base's upper one: a difference the base shows against
//     itself, or a machine that switches speed mid-run and slows some runs
//     of each side, never fails the gate.
//
// A benchmark found on only one side is named and does not fail: under an
// A/B comparison it can appear or vanish only through a change to the
// benchmark source in the same diff. Input that holds no benchmark result,
// or a benchmark line that does not parse, exits 2.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	// nsSlackPct is the ns/op slowdown, in percent of the base median, that
	// a head must exceed before the base's own spread is consulted.
	nsSlackPct = 20
	// bytesSlackPct is the allowed B/op rise over a nonzero baseline.
	bytesSlackPct = 25
	// allocsSlackPct is the allowed allocs/op rise over a nonzero baseline.
	allocsSlackPct = 0.1
	// gcPauseSlackPct is the allowed gc-pause-ns/op rise: pause totals are
	// the noisiest of the measures.
	gcPauseSlackPct = 100
	// materialPauseNsPerOp is the floor below which the GC-pause rule stays
	// unarmed: a sub-microsecond amortized pause means the benchmark barely
	// collects, and the ratio of two such numbers is noise over noise.
	materialPauseNsPerOp = 1000
)

// runs maps a benchmark's units (ns/op, B/op, allocs/op, custom metrics) to
// one value per run, in file order.
type runs map[string][]float64

// results is one file's benchmarks in first-appearance order.
type results struct {
	names []string
	by    map[string]runs
}

// parse reads `go test -bench` output. Lines that are not benchmark results
// (goos:, pkg:, PASS, ok, logs) are skipped; a benchmark name alone on its
// line is the announcement go test prints before a benchmark's log output.
func parse(r io.Reader) (*results, error) {
	res := &results{by: make(map[string]runs)}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		// name, iterations, then value-unit pairs
		if len(f)%2 != 0 {
			return nil, fmt.Errorf("line %d: odd field count in %q", line, sc.Text())
		}
		if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("line %d: iteration count: %w", line, err)
		}
		vals := make(map[string]float64, len(f)/2-1)
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s: %w", line, f[i+1], err)
			}
			vals[f[i+1]] = v
		}
		if _, ok := vals["ns/op"]; !ok {
			return nil, fmt.Errorf("line %d: no ns/op in %q", line, sc.Text())
		}
		name := benchName(f[0])
		m, seen := res.by[name]
		if !seen {
			m = make(runs)
			res.by[name] = m
			res.names = append(res.names, name)
		}
		for unit, v := range vals {
			m[unit] = append(m[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(res.names) == 0 {
		return nil, errors.New("no benchmark results")
	}
	return res, nil
}

// benchName drops the Benchmark prefix and the -N GOMAXPROCS suffix that go
// test appends when N > 1, so runs at different -cpu settings still pair.
func benchName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndexByte(s, '-'); i >= 0 && i > strings.LastIndexByte(s, '/') {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// quartiles returns the lower quartile, median and upper quartile of xs by
// the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// pctRise is how far head rises over base, in percent of base.
func pctRise(base, head float64) float64 { return 100 * (head - base) / base }

// regressions applies the gate's rules to one benchmark's base and head runs
// and names each measure that regressed.
func regressions(base, head runs) []string {
	var failed []string
	if b, h, ok := medians(base, head, "ns/op"); ok {
		bq1, _, bq3 := quartiles(base["ns/op"])
		hq1, _, _ := quartiles(head["ns/op"])
		if pctRise(b, h) > nsSlackPct && h-b > bq3-bq1 && hq1 > bq3 {
			failed = append(failed, "ns/op")
		}
	}
	if b, h, ok := medians(base, head, "B/op"); ok {
		if (b == 0 && h > 0) || (b > 0 && pctRise(b, h) > bytesSlackPct) {
			failed = append(failed, "B/op")
		}
	}
	if b, h, ok := medians(base, head, "allocs/op"); ok {
		if (b == 0 && h > 0) || (b > 0 && pctRise(b, h) > allocsSlackPct) {
			failed = append(failed, "allocs/op")
		}
	}
	if b, h, ok := medians(base, head, "gc-pause-ns/op"); ok {
		if b >= materialPauseNsPerOp && pctRise(b, h) > gcPauseSlackPct {
			failed = append(failed, "gc-pause-ns/op")
		}
	}
	return failed
}

// medians returns both sides' medians of unit, when both sides report it.
func medians(base, head runs, unit string) (b, h float64, ok bool) {
	if len(base[unit]) == 0 || len(head[unit]) == 0 {
		return 0, 0, false
	}
	return median(base[unit]), median(head[unit]), true
}

// cell renders one side's median of unit, or "-" when it reports none.
func cell(r runs, unit string) string {
	if len(r[unit]) == 0 {
		return "-"
	}
	return strconv.FormatFloat(median(r[unit]), 'g', 6, 64)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run compares the two files named in args and returns the exit code: 0
// when nothing regressed, 1 on a regression, 2 on bad usage or input.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff base.txt head.txt")
		return 2
	}
	var sides [2]*results
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sides[i], err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			return 2
		}
	}
	base, head := sides[0], sides[1]

	failed := false
	fmt.Fprintf(stdout, "%-28s %4s %12s %12s %8s %8s %11s %11s %12s %12s %11s %11s\n",
		"benchmark", "runs", "base ns/op", "head ns/op", "Δns", "base IQR",
		"base B/op", "head B/op", "base allocs", "head allocs", "base gc-ns", "head gc-ns")
	for _, name := range base.names {
		b, h := base.by[name], head.by[name]
		if h == nil {
			fmt.Fprintf(stdout, "%-28s only in base\n", name)
			continue
		}
		q1, bm, q3 := quartiles(b["ns/op"])
		verdict := ""
		for _, unit := range regressions(b, h) {
			verdict += "  FAIL " + unit
			failed = true
		}
		fmt.Fprintf(stdout, "%-28s %4d %12.4g %12.4g %+7.1f%% %7.1f%% %11s %11s %12s %12s %11s %11s%s\n",
			name, min(len(b["ns/op"]), len(h["ns/op"])), bm, median(h["ns/op"]),
			pctRise(bm, median(h["ns/op"])), 100*(q3-q1)/bm,
			cell(b, "B/op"), cell(h, "B/op"), cell(b, "allocs/op"), cell(h, "allocs/op"),
			cell(b, "gc-pause-ns/op"), cell(h, "gc-pause-ns/op"), verdict)
	}
	for _, name := range head.names {
		if base.by[name] == nil {
			fmt.Fprintf(stdout, "%-28s only in head\n", name)
		}
	}
	if failed {
		fmt.Fprintln(stdout, "\nbenchdiff: regression detected")
		return 1
	}
	fmt.Fprintln(stdout, "\nbenchdiff: ok")
	return 0
}
