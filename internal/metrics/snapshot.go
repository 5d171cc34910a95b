package metrics

import (
	"fmt"
	"strings"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// Snapshot is the end-of-run readout of one Set, shaped for both JSON
// export (stable field order, snake_case keys) and the deterministic text
// dump rendered by String. Rows are emitted in enum order — never map
// order — and empty rows are elided, so the same simulation produces the
// same bytes every run.
type Snapshot struct {
	Leg    string          `json:"leg"`
	Engine sim.EngineStats `json:"engine"`

	Counters []CounterRow `json:"counters"`
	MaxQueue []QueueRow   `json:"max_queue"`
	Hists    []HistRow    `json:"hists"`
	Predict  []PredictRow `json:"predict"`

	Spans        []*Span  `json:"spans,omitempty"`
	SpansDropped uint64   `json:"spans_dropped"`
	Violations   []string `json:"violations,omitempty"`
}

// CounterRow is one non-zero counter.
type CounterRow struct {
	Resource string `json:"resource"`
	Counter  string `json:"counter"`
	Value    uint64 `json:"value"`
}

// QueueRow is one resource's high-water queue depth.
type QueueRow struct {
	Resource string `json:"resource"`
	Max      int64  `json:"max_depth"`
}

// HistRow summarizes one non-empty histogram.
type HistRow struct {
	Resource string `json:"resource"`
	Kind     string `json:"kind"`
	Op       string `json:"op"`
	N        uint64 `json:"n"`
	MinNs    int64  `json:"min_ns"`
	MeanNs   int64  `json:"mean_ns"`
	P50Ns    int64  `json:"p50_ns"`
	P90Ns    int64  `json:"p90_ns"`
	P95Ns    int64  `json:"p95_ns"`
	P99Ns    int64  `json:"p99_ns"`
	MaxNs    int64  `json:"max_ns"`
}

// PredictRow is the §7.6 prediction-accuracy readout for one Mitt* layer:
// distribution of |actual − predicted| wait over completed admitted IOs,
// plus the signed bias (positive = the predictor underestimates waits).
type PredictRow struct {
	Resource     string `json:"resource"`
	N            uint64 `json:"n"`
	MeanAbsErrNs int64  `json:"mean_abs_err_ns"`
	P50AbsErrNs  int64  `json:"p50_abs_err_ns"`
	P95AbsErrNs  int64  `json:"p95_abs_err_ns"`
	P99AbsErrNs  int64  `json:"p99_abs_err_ns"`
	MaxAbsErrNs  int64  `json:"max_abs_err_ns"`
	BiasNs       int64  `json:"bias_ns"` // mean signed (actual − predicted)
}

// Snapshot renders the Set's current state under the given leg label.
func (s *Set) Snapshot(leg string) *Snapshot {
	sn := &Snapshot{
		Leg:          leg,
		Engine:       s.eng.Stats(),
		Spans:        s.spans,
		SpansDropped: s.spansDropped,
		Violations:   s.violations,
	}
	for r := Resource(0); r < numResources; r++ {
		for c := Counter(0); c < numCounters; c++ {
			if v := s.counters[r][c]; v > 0 {
				sn.Counters = append(sn.Counters, CounterRow{r.String(), c.String(), v})
			}
		}
	}
	for r := Resource(0); r < numResources; r++ {
		if m := s.gauges[r].Max; m > 0 {
			sn.MaxQueue = append(sn.MaxQueue, QueueRow{r.String(), m})
		}
	}
	for r := Resource(0); r < numResources; r++ {
		for k := HistKind(0); k < numHistKinds; k++ {
			for op := 0; op < numOps; op++ {
				h := &s.hists[r][k][op]
				if h.N == 0 {
					continue
				}
				sn.Hists = append(sn.Hists, HistRow{
					Resource: r.String(), Kind: k.String(), Op: blockio.Op(op).String(),
					N: h.N, MinNs: h.Min, MeanNs: h.Mean(),
					P50Ns: h.Quantile(0.50), P90Ns: h.Quantile(0.90),
					P95Ns: h.Quantile(0.95), P99Ns: h.Quantile(0.99),
					MaxNs: h.Max,
				})
			}
		}
	}
	for r := Resource(0); r < numResources; r++ {
		if s.predN[r] == 0 {
			continue
		}
		// Aggregate the per-op abs-error histograms into one row per layer.
		var agg Hist
		for op := 0; op < numOps; op++ {
			h := &s.hists[r][HPredictErr][op]
			if h.N == 0 {
				continue
			}
			if agg.N == 0 || h.Min < agg.Min {
				agg.Min = h.Min
			}
			if h.Max > agg.Max {
				agg.Max = h.Max
			}
			agg.N += h.N
			agg.Sum += h.Sum
			for i := range h.Buckets {
				agg.Buckets[i] += h.Buckets[i]
			}
		}
		sn.Predict = append(sn.Predict, PredictRow{
			Resource: r.String(), N: s.predN[r],
			MeanAbsErrNs: agg.Mean(),
			P50AbsErrNs:  agg.Quantile(0.50),
			P95AbsErrNs:  agg.Quantile(0.95),
			P99AbsErrNs:  agg.Quantile(0.99),
			MaxAbsErrNs:  agg.Max,
			BiasNs:       s.predBias[r] / int64(s.predN[r]),
		})
	}
	return sn
}

// fmtNs renders nanoseconds as a duration string.
func fmtNs(ns int64) string { return time.Duration(ns).String() }

// String renders the snapshot as a deterministic, human-oriented text dump.
func (sn *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics [%s]\n", sn.Leg)
	e := sn.Engine
	fmt.Fprintf(&b, "  engine: now=%v fired=%d scheduled=%d cancelled=%d cascades=%d pending=%d max-pending=%d max-slot=%d overflow=%d\n",
		e.Now, e.Fired, e.Scheduled, e.Cancelled, e.Cascades, e.Pending, e.MaxPending, e.MaxSlot, e.Overflow)
	if len(sn.Counters) > 0 {
		fmt.Fprintf(&b, "  counters:\n")
		last := ""
		for _, c := range sn.Counters {
			if c.Resource != last {
				if last != "" {
					fmt.Fprintln(&b)
				}
				fmt.Fprintf(&b, "    %-10s", c.Resource+":")
				last = c.Resource
			}
			fmt.Fprintf(&b, " %s=%d", c.Counter, c.Value)
		}
		fmt.Fprintln(&b)
	}
	if len(sn.MaxQueue) > 0 {
		fmt.Fprintf(&b, "  max queue depth:")
		for _, q := range sn.MaxQueue {
			fmt.Fprintf(&b, " %s=%d", q.Resource, q.Max)
		}
		fmt.Fprintln(&b)
	}
	if len(sn.Hists) > 0 {
		fmt.Fprintf(&b, "  histograms:\n")
		for _, h := range sn.Hists {
			fmt.Fprintf(&b, "    %s/%s/%s: n=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
				h.Resource, h.Kind, h.Op, h.N,
				fmtNs(h.MeanNs), fmtNs(h.P50Ns), fmtNs(h.P95Ns), fmtNs(h.P99Ns), fmtNs(h.MaxNs))
		}
	}
	if len(sn.Predict) > 0 {
		fmt.Fprintf(&b, "  prediction error (|actual-predicted| wait, §7.6):\n")
		for _, p := range sn.Predict {
			fmt.Fprintf(&b, "    %s: n=%d mean=%s p50=%s p95=%s p99=%s max=%s bias=%s\n",
				p.Resource, p.N, fmtNs(p.MeanAbsErrNs), fmtNs(p.P50AbsErrNs),
				fmtNs(p.P95AbsErrNs), fmtNs(p.P99AbsErrNs), fmtNs(p.MaxAbsErrNs), fmtNs(p.BiasNs))
		}
	}
	if len(sn.Spans) > 0 || sn.SpansDropped > 0 {
		fmt.Fprintf(&b, "  spans: %d traced, %d dropped\n", len(sn.Spans), sn.SpansDropped)
	}
	for _, v := range sn.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}
