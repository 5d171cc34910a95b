// Package stats provides the measurement machinery behind every table and
// figure in the MittOS reproduction: streaming summaries, exact-percentile
// latency samples, CDFs, and the paper's "% latency reduction" computation
// ((T_other − T_mitt) / T_other, §7.2 footnote 2).
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Summary accumulates count/mean/variance/min/max using Welford's method.
// It is safe for very long runs (no catastrophic cancellation).
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddDuration records a duration observation in nanoseconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(float64(d)) }

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 {
	return s.mean
}

// MeanDuration returns the mean as a duration.
func (s *Summary) MeanDuration() time.Duration { return time.Duration(s.mean) }

// Var returns the sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Merge folds other into s.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	mean := s.mean + d*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Sample collects latency observations and answers exact percentile queries.
// The evaluation's request counts (10⁴–10⁶ per run) fit comfortably in
// memory, so exactness is preferred over sketches: the paper reports
// specific percentiles (p75/p90/p95/p99) and small errors there would
// distort the reduction tables.
type Sample struct {
	vals   []time.Duration
	sorted bool
	sum    Summary
}

// NewSample returns a sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{vals: make([]time.Duration, 0, capacity)}
}

// NewSampleBuf returns a sample recording into buf (truncated to length
// zero). Used with BufPool so short-lived samples — per-client latency
// buffers that are merged and discarded at the end of every experiment leg —
// reuse one arena-owned allocation instead of growing a fresh one per leg.
func NewSampleBuf(buf []time.Duration) *Sample {
	return &Sample{vals: buf[:0]}
}

// TakeBuf detaches and returns the sample's backing buffer, leaving the
// sample empty. The caller owns the buffer (typically returning it to a
// BufPool); the sample remains usable but starts from scratch.
func (s *Sample) TakeBuf() []time.Duration {
	buf := s.vals
	s.vals = nil
	s.sorted = false
	s.sum = Summary{}
	return buf
}

// BufPool recycles sample buffers across experiment legs. Get prefers the
// largest parked buffer so a reused buffer almost never regrows; capacity
// differences are invisible to Sample semantics (only vals[:len] is read),
// which keeps arena-reuse runs byte-identical to fresh-heap runs.
type BufPool struct {
	bufs [][]time.Duration
}

// Get returns a zero-length buffer with at least the given capacity,
// reusing a parked buffer when one is large enough.
func (p *BufPool) Get(capacity int) []time.Duration {
	best := -1
	for i, b := range p.bufs {
		if cap(b) >= capacity && (best < 0 || cap(b) > cap(p.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]time.Duration, 0, capacity)
	}
	buf := p.bufs[best]
	last := len(p.bufs) - 1
	p.bufs[best] = p.bufs[last]
	p.bufs[last] = nil
	p.bufs = p.bufs[:last]
	return buf[:0]
}

// Put parks a buffer for reuse. Nil or zero-capacity buffers are dropped.
func (p *BufPool) Put(buf []time.Duration) {
	if cap(buf) == 0 {
		return
	}
	p.bufs = append(p.bufs, buf[:0])
}

// Add records one latency.
func (s *Sample) Add(d time.Duration) {
	s.vals = append(s.vals, d)
	s.sorted = false
	s.sum.AddDuration(d)
}

// AddCO records one closed-loop observation with HdrHistogram-style
// coordinated-omission correction: alongside the raw latency, synthetic
// samples lat−expected, lat−2·expected, … (while ≥ expected) stand in for
// the requests the stalled loop never issued. expected is the loop's
// intended inter-arrival interval; non-positive values disable correction.
func (s *Sample) AddCO(lat, expected time.Duration) {
	s.Add(lat)
	if expected <= 0 {
		return
	}
	for v := lat - expected; v >= expected; v -= expected {
		s.Add(v)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the mean latency.
func (s *Sample) Mean() time.Duration { return s.sum.MeanDuration() }

// Max returns the maximum latency.
func (s *Sample) Max() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	return time.Duration(s.sum.Max())
}

// Min returns the minimum latency.
func (s *Sample) Min() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	return time.Duration(s.sum.Min())
}

// sort orders the observations. slices.Sort is not stable, but equal
// durations cannot be told apart, so every query answers as it would on a
// stable sort.
func (s *Sample) sort() {
	if !s.sorted {
		slices.Sort(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using the
// nearest-rank method on the sorted sample. An empty sample returns 0.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

// FractionAbove returns the fraction of observations strictly above d.
func (s *Sample) FractionAbove(d time.Duration) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > d })
	return float64(len(s.vals)-i) / float64(len(s.vals))
}

// CDF returns the empirical CDF as (latency, cumulative-probability) points,
// downsampled to at most maxPoints for plotting. With maxPoints ≤ 0 every
// distinct observation becomes a point.
func (s *Sample) CDF(maxPoints int) []CDFPoint {
	n := len(s.vals)
	if n == 0 {
		return nil
	}
	s.sort()
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		// Always include the max as the last point.
		idx := int(float64(i+1)/float64(maxPoints)*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		pts = append(pts, CDFPoint{
			Latency: s.vals[idx],
			P:       float64(idx+1) / float64(n),
		})
	}
	return pts
}

// Merge folds another sample's observations into s.
func (s *Sample) Merge(other *Sample) {
	s.vals = append(s.vals, other.vals...)
	s.sorted = false
	s.sum.Merge(&other.sum)
}

// Values returns a copy of the raw observations (sorted).
func (s *Sample) Values() []time.Duration {
	s.sort()
	out := make([]time.Duration, len(s.vals))
	copy(out, s.vals)
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency time.Duration
	P       float64
}

// Reduction computes the paper's latency-reduction metric,
// (other − mitt) / other, as a percentage. A non-positive other yields 0.
func Reduction(mitt, other time.Duration) float64 {
	if other <= 0 {
		return 0
	}
	return 100 * float64(other-mitt) / float64(other)
}

// Percentiles is the standard set reported in the paper's bar charts.
var Percentiles = []float64{75, 90, 95, 99}

// ReductionRow reports the %-reduction of `mitt` vs `other` at Avg and the
// standard percentiles, in the order Avg, p75, p90, p95, p99 — the x-axis of
// Figures 5b, 6d, 7b, 8b.
func ReductionRow(mitt, other *Sample) []float64 {
	row := []float64{Reduction(mitt.Mean(), other.Mean())}
	for _, p := range Percentiles {
		row = append(row, Reduction(mitt.Percentile(p), other.Percentile(p)))
	}
	return row
}

// Table renders rows of labelled values as an aligned ASCII table; every
// experiment uses it to print paper-style output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatDuration renders a duration with millisecond-scale readability, the
// unit the paper's figures use.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return d.String()
	}
}

// FormatPct renders a percentage with one decimal.
func FormatPct(p float64) string { return fmt.Sprintf("%.1f%%", p) }
