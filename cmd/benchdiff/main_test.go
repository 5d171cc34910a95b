package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// header and footer are the non-result lines go test prints around every
// benchmark run; the parser must skip them.
const (
	header = "goos: linux\ngoarch: amd64\npkg: mittos\ncpu: Intel(R) Xeon(R) Processor\n"
	footer = "PASS\nok  \tmittos\t12.345s\n"
)

// bench renders one run of a file: the header, the given result lines, and
// the footer.
func bench(lines ...string) string {
	return header + strings.Join(lines, "\n") + "\n" + footer
}

// repeat is n runs of the same result lines.
func repeat(n int, lines ...string) string {
	return strings.Repeat(bench(lines...), n)
}

func TestRun(t *testing.T) {
	const (
		seek  = "BenchmarkSeekCost-2   \t151305981\t         7.107 ns/op\t       0 B/op\t       0 allocs/op"
		cfq4  = "BenchmarkPredictWaitCFQ/procs=4-2 \t42053421\t        24.26 ns/op\t       0 B/op\t       0 allocs/op"
		cfq32 = "BenchmarkPredictWaitCFQ/procs=32-2 \t49275236\t        24.13 ns/op\t       0 B/op\t       0 allocs/op"
		fig4  = "BenchmarkFig4-2 \t1\t208209494 ns/op\t66.08 base-p95-ms\t5000 gc-pause-ns/op\t15.65 mitt-p95-ms\t240819992 B/op\t   24404 allocs/op"
	)
	for _, tc := range []struct {
		name       string
		base, head string
		want       int
		out        []string // substrings the report must contain
		notOut     []string // substrings it must not contain
	}{
		// Parsing.
		{
			name: "GOMAXPROCS suffix stripped so -cpu 2 pairs with -cpu 8",
			base: repeat(3, seek),
			head: repeat(3, strings.Replace(seek, "SeekCost-2", "SeekCost-8", 1)),
			want: 0,
			out:  []string{"SeekCost ", "benchdiff: ok"},
			// Without the strip each side would see the other's name missing.
			notOut: []string{"only in"},
		},
		{
			name: "sub-benchmark names keep '/' and '='",
			base: repeat(3, cfq4, cfq32),
			head: repeat(3, cfq4, cfq32),
			want: 0,
			out:  []string{"PredictWaitCFQ/procs=4 ", "PredictWaitCFQ/procs=32 "},
		},
		{
			name: "custom metrics in any column; repeated runs take the median",
			base: bench(fig4) + bench(fig4) + bench(strings.Replace(fig4, "24404 allocs", "99999 allocs", 1)),
			head: bench(fig4) + bench(fig4) + bench(fig4),
			want: 0,
			out:  []string{"Fig4 ", "24404", "5000", "benchdiff: ok"},
		},
		{
			name: "a name alone on its line (log announcement) is skipped",
			base: header + "BenchmarkSeekCost-2\n    bench_test.go:1: note\n" + seek + "\n" + footer,
			head: bench(seek),
			want: 0,
			out:  []string{"benchdiff: ok"},
		},

		// Pass cases.
		{
			name: "no-op pair",
			base: repeat(5, seek, cfq4, fig4),
			head: repeat(5, seek, cfq4, fig4),
			want: 0,
			out:  []string{"benchdiff: ok"},
		},
		{
			name: "slowdown past the slack but inside the base spread",
			base: bench(ns("SeekCost", 10)) + bench(ns("SeekCost", 10)) + bench(ns("SeekCost", 14)) +
				bench(ns("SeekCost", 6)) + bench(ns("SeekCost", 10)),
			head: repeat(5, ns("SeekCost", 12)),
			want: 0,
			out:  []string{"benchdiff: ok"},
		},
		{
			// The median moved past the slack and the base's spread, but two
			// head runs read as fast as the base: the machine changed speed,
			// not the code.
			name: "slowdown whose runs overlap the base's",
			base: repeat(5, ns("SeekCost", 10)) + repeat(2, ns("SeekCost", 11)),
			head: repeat(2, ns("SeekCost", 10)) + repeat(5, ns("SeekCost", 14)),
			want: 0,
			out:  []string{"benchdiff: ok"},
		},
		{
			name: "GC-pause rise over a sub-µs baseline",
			base: repeat(3, gc("YCSBMix", 500)),
			head: repeat(3, gc("YCSBMix", 5000)),
			want: 0,
			out:  []string{"benchdiff: ok"},
		},
		{
			name: "one-sided benchmarks are named and pass",
			base: repeat(3, seek, "BenchmarkEngineCancelHeavy/heap-2 \t100\t239.6 ns/op\t48 B/op\t1 allocs/op"),
			head: repeat(3, seek, "BenchmarkEngineCancelHeavy-2 \t100\t226.1 ns/op\t64 B/op\t1 allocs/op"),
			want: 0,
			out:  []string{"EngineCancelHeavy/heap", "only in base", "EngineCancelHeavy ", "only in head", "benchdiff: ok"},
		},

		// Fail cases.
		{
			name: "30% slower median with a tight spread",
			base: bench(ns("CFQSubmitDispatch", 600)) + bench(ns("CFQSubmitDispatch", 602)) + bench(ns("CFQSubmitDispatch", 598)),
			head: repeat(3, ns("CFQSubmitDispatch", 780)),
			want: 1,
			out:  []string{"CFQSubmitDispatch", "FAIL ns/op", "regression detected"},
		},
		{
			name: "+1 alloc on a zero baseline",
			base: repeat(3, "BenchmarkDiskDestage-2 \t100\t165 ns/op\t0 B/op\t0 allocs/op"),
			head: repeat(3, "BenchmarkDiskDestage-2 \t100\t165 ns/op\t0 B/op\t1 allocs/op"),
			want: 1,
			out:  []string{"DiskDestage", "FAIL allocs/op"},
		},
		{
			name: "+0.2% allocs on an experiment-scale baseline",
			base: repeat(3, "BenchmarkYCSBMix \t1\t2e8 ns/op\t31190680 B/op\t473410 allocs/op"),
			head: repeat(3, "BenchmarkYCSBMix \t1\t2e8 ns/op\t31190680 B/op\t474357 allocs/op"),
			want: 1,
			out:  []string{"YCSBMix", "FAIL allocs/op"},
		},
		{
			name: "+30% B/op",
			base: repeat(3, "BenchmarkFig4 \t1\t2e8 ns/op\t100000000 B/op\t18700 allocs/op"),
			head: repeat(3, "BenchmarkFig4 \t1\t2e8 ns/op\t130000000 B/op\t18700 allocs/op"),
			want: 1,
			out:  []string{"Fig4", "FAIL B/op"},
			// The allocation count did not move.
			notOut: []string{"FAIL allocs/op"},
		},
		{
			name: "+150% GC pause on a material baseline",
			base: repeat(3, gc("LoadSweep", 20000)),
			head: repeat(3, gc("LoadSweep", 50000)),
			want: 1,
			out:  []string{"LoadSweep", "FAIL gc-pause-ns/op"},
		},

		// Bad input never passes.
		{name: "empty base", base: "", head: bench(seek), want: 2},
		{name: "empty head", base: bench(seek), head: "", want: 2},
		{name: "no benchmark lines", base: header + footer, head: header + footer, want: 2},
		{name: "garbled value", base: bench(seek), head: bench("BenchmarkSeekCost-2 \t100\tfast ns/op"), want: 2},
		{name: "garbled iterations", base: bench("BenchmarkSeekCost-2 \tmany\t7 ns/op"), head: bench(seek), want: 2},
		{name: "truncated line", base: bench(seek), head: bench("BenchmarkSeekCost-2 \t100\t7.1"), want: 2},
		{name: "no ns/op", base: bench("BenchmarkSeekCost-2 \t100\t0 B/op"), head: bench(seek), want: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath, headPath := filepath.Join(dir, "base.txt"), filepath.Join(dir, "head.txt")
			if err := os.WriteFile(basePath, []byte(tc.base), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(headPath, []byte(tc.head), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr strings.Builder
			if got := run([]string{basePath, headPath}, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			for _, s := range tc.out {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("report lacks %q:\n%s", s, stdout.String())
				}
			}
			for _, s := range tc.notOut {
				if strings.Contains(stdout.String(), s) {
					t.Errorf("report has %q:\n%s", s, stdout.String())
				}
			}
			if tc.want == 2 && (stderr.Len() == 0 || strings.Contains(stdout.String(), "benchdiff: ok")) {
				t.Errorf("bad input must be reported and never pass; stdout %q stderr %q", stdout.String(), stderr.String())
			}
		})
	}
}

func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"one.txt"}, {"-ns-threshold", "25", "a", "b"}} {
		var stdout, stderr strings.Builder
		if got := run(args, &stdout, &stderr); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
}

// ns is one allocation-free result line of name at v ns/op.
func ns(name string, v float64) string {
	return "Benchmark" + name + "-2 \t1000\t" + strconv.FormatFloat(v, 'g', -1, 64) + " ns/op\t0 B/op\t0 allocs/op"
}

// gc is one experiment-scale result line of name with v gc-pause-ns/op.
func gc(name string, v float64) string {
	return "Benchmark" + name + " \t1\t2e8 ns/op\t" + strconv.FormatFloat(v, 'g', -1, 64) + " gc-pause-ns/op\t3e7 B/op\t473410 allocs/op"
}
