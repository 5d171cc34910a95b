package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"time"
)

// The span recorder behind -trace. Spans are host-time intervals around the
// benchmark's own calls into a layer. The simulation is single-threaded and
// every layer call is synchronous, so spans nest strictly: an open-span
// stack gives each span its parent and its self time (duration minus the
// time its children cover) exactly, online. Per-name self times go into
// log-bucket histograms; only the first keepSpans spans are kept verbatim,
// for the Chrome trace written when the traced pass ends.

// keepSpans bounds the Chrome trace: enough for a few thousand requests
// end to end, small enough (~5 MB of JSON) to open in Perfetto.
const keepSpans = 50000

// spanKind names one span boundary.
type spanKind int

const (
	spanClusterGet spanKind = iota
	spanClusterGetCB
	spanClusterPut
	spanClusterPutCB
	spanKVGet
	spanKVPut
	spanCoreSubmit
	spanBlockSubmit
	spanNoiseSubmit
	spanWindow
	spanSetup      // one setup constructor; the detail names it
	spanExperiment // one experiments.Run call; the detail names the id
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"cluster_get", "cluster_get_cb", "cluster_put", "cluster_put_cb",
	"kv_get", "kv_put", "core_submit", "block_submit", "noise_submit",
	"window", "setup", "experiment",
}

// span is one finished span, kept for the Chrome trace.
type span struct {
	kind       spanKind
	detail     string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index into tracer.kept, -1 at top level
	req        uint64
}

type openSpan struct {
	kind   spanKind
	detail string
	start  int64
	child  int64 // time covered by finished children
	req    uint64
	kept   int32 // index into tracer.kept, -1 when not kept
}

// selfStat accumulates one span name's self times.
type selfStat struct {
	n     int64
	total int64 // summed self ns
	hist  logHist
}

// tracer records spans. A nil *tracer records nothing, so shims and
// adapters call it unconditionally.
type tracer struct {
	epoch   time.Time
	stack   []openSpan
	kept    []span
	kinds   [numSpanKinds]selfStat
	details map[string]*selfStat // spans with a detail, keyed "setup.NewCluster", …
	ids     uint64
	// windows holds each virtual run window's whole host duration (its
	// self time is in stats like any span's).
	windows logHist
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), details: make(map[string]*selfStat)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextID hands out request ids for spans whose layer has none.
func (t *tracer) nextID() uint64 {
	if t == nil {
		return 0
	}
	t.ids++
	return t.ids
}

func (t *tracer) begin(k spanKind, req uint64) {
	if t == nil {
		return
	}
	t.beginDetail(k, "", req)
}

func (t *tracer) beginDetail(k spanKind, detail string, req uint64) {
	if t == nil {
		return
	}
	o := openSpan{kind: k, detail: detail, req: req, kept: -1}
	if len(t.kept) < keepSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		o.kept = int32(len(t.kept))
		t.kept = append(t.kept, span{kind: k, detail: detail, parent: parent, req: req})
	}
	o.start = t.now()
	t.stack = append(t.stack, o)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	self := dur - o.child
	if o.kind == spanWindow {
		t.windows.add(dur)
	}
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if o.kept >= 0 {
		t.kept[o.kept].start, t.kept[o.kept].end = o.start, end
	}
	st := &t.kinds[o.kind]
	if o.detail != "" {
		name := spanNames[o.kind] + "." + o.detail
		if st = t.details[name]; st == nil {
			st = &selfStat{}
			t.details[name] = st
		}
	}
	st.n++
	st.total += self
	st.hist.add(self)
}

// spanRow is one line of the self-time table.
type spanRow struct {
	Name    string  `json:"name"`
	N       int64   `json:"n"`
	TotalNs int64   `json:"total_ns"`
	P50     float64 `json:"p50_ns"`
	P99     float64 `json:"p99_ns"`
}

func (t *tracer) rows() []spanRow {
	var out []spanRow
	add := func(name string, st *selfStat) {
		out = append(out, spanRow{Name: name, N: st.n, TotalNs: st.total,
			P50: st.hist.quantile(0.50), P99: st.hist.quantile(0.99)})
	}
	for k := range t.kinds {
		if t.kinds[k].n > 0 {
			add(spanNames[k], &t.kinds[k])
		}
	}
	for name, st := range t.details { //mapiter:sorted
		add(name, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeChrome writes the kept spans as Chrome trace-event JSON (one
// complete "X" event per span, microsecond timestamps), viewable in
// Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for i, s := range t.kept {
		if s.end == 0 && s.start == 0 {
			continue // still open when the run stopped
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		name := spanNames[s.kind]
		if s.detail != "" {
			name += "." + s.detail
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"req\":%d,\"parent\":%d}}",
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.req, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logHist is a log-linear histogram of non-negative nanosecond values:
// each power of two splits into histSub linear buckets, so a quantile is
// within ~6% of the exact value at any magnitude, in constant memory and
// without floating point on the hot path.
const histSub = 8 // must be a power of two

type logHist struct {
	counts [64 * histSub]int64
	n      int64
}

const subBits = 3 // log2(histSub)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // ≥ subBits
	sub := int(uint64(v)>>(e-subBits)) & (histSub - 1)
	return (e-subBits+1)*histSub + sub
}

// bucketMid is the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := b/histSub + subBits - 1
	sub := b % histSub
	width := math.Ldexp(1, e-subBits)
	return float64(histSub+sub)*width + width/2
}

func (h *logHist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

// quantile returns the midpoint of the bucket holding quantile q.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return 0
}
