// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §6, §7). Each experiment is a pure function of its
// options: the same seed produces byte-identical output. The experiment
// index lives in DESIGN.md; EXPERIMENTS.md records paper-vs-measured for
// each run.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mittos/internal/disk"
	"mittos/internal/metrics"
	"mittos/internal/stats"
)

// Options control experiment scale; defaults reproduce the paper's setup at
// simulation-friendly durations, and tests/benches shrink them further.
type Options struct {
	// Seed drives every RNG stream in the experiment.
	Seed int64
	// Nodes is the fleet size for macro experiments (paper: 20).
	Nodes int
	// Clients is the number of concurrent YCSB clients (paper: 20).
	Clients int
	// Duration is the measured virtual time per strategy run.
	Duration time.Duration
	// Interval is the per-client request period.
	Interval time.Duration
	// Keys is the KV keyspace per node.
	Keys int64
	// Workers bounds the worker pool the experiment's independent legs run
	// on. 0 (the default) means one worker per CPU; 1 forces the serial
	// reference schedule. Output is byte-identical for any value: legs are
	// hermetic and results are assembled in declaration order.
	Workers int
	// Metrics enables the per-layer metrics registry (and, for fig4, fig7,
	// ycsbmix and loadsweep, per-leg snapshots attached to the Result). Off
	// by default: the simulation carries only a nil recorder pointer.
	Metrics bool
	// TraceIOs bounds per-IO span capture per fleet when Metrics is on:
	// 0 captures counters/histograms only, N > 0 the first N spans, and a
	// negative value every span.
	TraceIOs int
	// Faults overrides the failslow experiment's fault schedule with a
	// parsed config string (see faults.ParseSchedule; the mittbench
	// -faults flag). Empty means the experiment's built-in scenario.
	Faults string
	// Rates overrides the loadsweep experiment's offered-load multipliers
	// (× measured saturation; the mittbench -rates flag). Empty means the
	// built-in 0.2→1.5 sweep.
	Rates []float64
}

// DefaultOptions is the full-scale configuration.
func DefaultOptions() Options {
	return Options{
		Seed:     1,
		Nodes:    20,
		Clients:  20,
		Duration: 60 * time.Second,
		Interval: 15 * time.Millisecond,
		Keys:     100000,
	}
}

// QuickOptions is a reduced configuration for tests and benches.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Nodes = 9
	o.Clients = 6
	o.Duration = 10 * time.Second
	o.Interval = 10 * time.Millisecond // same ~67 IOPS/node as full scale
	o.Keys = 20000
	return o
}

// Series is one labelled latency distribution (a CDF line in a figure).
type Series struct {
	Name   string
	Sample *stats.Sample
}

// CDF returns the series' plotted points.
func (s Series) CDF(points int) []stats.CDFPoint { return s.Sample.CDF(points) }

// Result is a rendered experiment.
type Result struct {
	ID     string
	Title  string
	Series []Series
	Tables []*stats.Table
	Notes  []string
	// Metrics holds per-leg observability snapshots when the experiment ran
	// with Options.Metrics set (fig4, fig7, ycsbmix and loadsweep attach
	// them), in leg declaration order. They are NOT part of String():
	// golden outputs stay identical with metrics on or off.
	Metrics []*metrics.Snapshot
	// Sweep holds the loadsweep experiment's per-cell results (empty for
	// every other experiment) — the machine-readable twin of its tables,
	// dumped by mittbench -sweep-json. Like Metrics, it is NOT part of
	// String().
	Sweep []SweepPoint
}

// String renders the result in paper-style ASCII.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		tb := &stats.Table{Header: []string{"series", "n", "avg", "p50", "p75", "p90", "p95", "p99", "max"}}
		for _, s := range r.Series {
			tb.AddRow(s.Name,
				fmt.Sprint(s.Sample.N()),
				stats.FormatDuration(s.Sample.Mean()),
				stats.FormatDuration(s.Sample.Percentile(50)),
				stats.FormatDuration(s.Sample.Percentile(75)),
				stats.FormatDuration(s.Sample.Percentile(90)),
				stats.FormatDuration(s.Sample.Percentile(95)),
				stats.FormatDuration(s.Sample.Percentile(99)),
				stats.FormatDuration(s.Sample.Max()),
			)
		}
		b.WriteString(tb.String())
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	return b.String()
}

// Plot renders the result's series as an ASCII CDF chart (the shape of the
// paper's latency-CDF figures).
func (r *Result) Plot(width, height int) string {
	in := make([]struct {
		Name   string
		Sample *stats.Sample
	}, 0, len(r.Series))
	for _, s := range r.Series {
		in = append(in, struct {
			Name   string
			Sample *stats.Sample
		}{s.Name, s.Sample})
	}
	return stats.PlotCDFs(in, width, height)
}

// FindSeries returns the named series, or nil.
func (r *Result) FindSeries(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// sharedDiskProfile caches the (deterministic, seed-fixed) offline profile:
// the paper profiles its disk once and reuses the model everywhere.
var sharedDiskProfile = disk.ProfileTwin(disk.DefaultConfig(), 42,
	disk.ProfilerOptions{Buckets: 48, Tries: 8, ProbeSize: 4096})

// DiskProfile exposes the shared profile (examples reuse it).
func DiskProfile() *disk.Profile { return sharedDiskProfile }
