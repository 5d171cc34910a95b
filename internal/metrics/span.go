package metrics

import (
	"fmt"

	"mittos/internal/blockio"
)

// Span is the structured trace of one IO's life:
//
//	submit → sched queue → device queue → service → complete/EBUSY
//
// Timestamps are virtual-time nanoseconds; -1 means the IO never reached
// that stage (a fast-rejected IO has only Submit and End; a cache hit never
// enters a scheduler). Spans are created at the node's storage boundary and
// stamped by each layer as the request descends.
type Span struct {
	Node  int    `json:"node"`
	ID    uint64 `json:"id"`
	Op    string `json:"op"`
	Proc  int    `json:"proc"`
	Class string `json:"class"`
	Prio  int    `json:"prio"`

	DeadlineNs int64 `json:"deadline_ns"` // 0 = no SLO

	// WalQueueNs is the group-commit queueing the oldest batched put spent
	// above the stack before this WAL IO was submitted (0 for IOs that were
	// never batch-queued) — the put path's wal-queue stage.
	WalQueueNs int64 `json:"wal_queue_ns,omitempty"`

	SubmitNs     int64 `json:"submit_ns"`
	SchedEnterNs int64 `json:"sched_enter_ns"`
	SchedExitNs  int64 `json:"sched_exit_ns"`
	DevEnterNs   int64 `json:"dev_enter_ns"`
	DevStartNs   int64 `json:"dev_start_ns"`
	EndNs        int64 `json:"end_ns"`

	// Admission bookkeeping: the Mitt* layer's wait/service estimate and,
	// once completed, the measured wait — the per-IO §7.6 record.
	PredWaitNs   int64 `json:"pred_wait_ns"`
	PredSvcNs    int64 `json:"pred_svc_ns"`
	ActualWaitNs int64 `json:"actual_wait_ns"`

	// Verdict is the terminal state: "completed", "busy" (fast EBUSY),
	// "busy-late" (MittCFQ cancellation), "revoked" (owner cancelled a tied
	// request), or "" while in flight.
	Verdict    string `json:"verdict"`
	RejectLate bool   `json:"reject_late,omitempty"`

	// Terminals counts terminal verdicts delivered; the exactly-once
	// invariant demands it never exceeds 1.
	Terminals int `json:"terminals"`
}

// terminal records a terminal verdict, flagging double delivery.
func (sp *Span) terminal(s *Set, verdict string) {
	sp.Terminals++
	if sp.Terminals > 1 {
		s.violations = append(s.violations, fmt.Sprintf(
			"io#%d node=%d: %d terminal verdicts (%s then %s)",
			sp.ID, sp.Node, sp.Terminals, sp.Verdict, verdict))
		return
	}
	sp.Verdict = verdict
	sp.EndNs = int64(s.eng.Now())
}

// IOBegin opens a span at the node's storage boundary. Every IO that enters
// the stack — client gets, WAL/flush writes, noise, cache background IO —
// passes exactly one boundary, so spans are created exactly once.
func (r *Recorder) IOBegin(req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[RNode][CSubmitted]++
	if req.SubmitTime == 0 {
		// Stamp submit time for paths whose first layer would not (the
		// vanilla cache-hit path): same virtual instant either way.
		req.SubmitTime = s.eng.Now()
	}
	if s.spanIdx == nil {
		return
	}
	if sp := s.spanIdx[req]; sp != nil {
		if sp.Terminals == 0 {
			s.violations = append(s.violations, fmt.Sprintf(
				"io#%d node=%d: submitted twice at the boundary", req.ID, r.node))
			return
		}
		// A pooled request recycles at its terminal, so the same pointer
		// is a fresh IO now. Its old span leaves the index before the cap
		// check: an untraced reuse must not find it.
		delete(s.spanIdx, req)
	}
	if s.traceMax >= 0 && len(s.spans) >= s.traceMax {
		s.spansDropped++
		return
	}
	sp := &Span{
		Node: r.node, ID: req.ID, Op: req.Op.String(),
		Proc: req.Proc, Class: req.Class.String(), Prio: req.Priority,
		DeadlineNs:   int64(req.Deadline),
		SubmitNs:     int64(s.eng.Now()),
		SchedEnterNs: -1, SchedExitNs: -1, DevEnterNs: -1, DevStartNs: -1,
		EndNs: -1, PredWaitNs: -1, PredSvcNs: -1, ActualWaitNs: -1,
	}
	if req.QueuedTime > 0 {
		sp.WalQueueNs = int64(s.eng.Now().Sub(req.QueuedTime))
	}
	s.spans = append(s.spans, sp)
	s.spanIdx[req] = sp
}

// IOEnd closes a span with the IO's final verdict: err == nil is normal
// completion, a busy error (blockio.ErrBusy / core.BusyError) is an EBUSY
// rejection. The boundary latency histogram is fed here.
func (r *Recorder) IOEnd(req *blockio.Request, err error, busy bool) {
	if r == nil {
		return
	}
	s := r.set
	now := s.eng.Now()
	// The span stays indexed until the request's next IOBegin, so a second
	// terminal still finds it and is flagged.
	sp := s.spanIdx[req]
	switch {
	case err == nil:
		s.counters[RNode][CCompleted]++
		s.hists[RNode][HLatency][opIndex(req.Op)].Observe(now.Sub(req.SubmitTime))
		if sp != nil {
			sp.terminal(s, "completed")
		}
	case busy:
		s.counters[RNode][CRejected]++
		if sp != nil {
			if sp.RejectLate {
				sp.terminal(s, "busy-late")
			} else {
				sp.terminal(s, "busy")
			}
		}
	default:
		// Non-busy errors (e.g. kv.ErrNotFound) never reach the block
		// layer; treat as completed-with-error for accounting.
		s.counters[RNode][CCompleted]++
		if sp != nil {
			sp.terminal(s, "error")
		}
	}
}

// Spans returns the traced spans in creation order.
func (s *Set) Spans() []*Span { return s.spans }

// SpansDropped reports IOs not traced because the trace cap was reached.
func (s *Set) SpansDropped() uint64 { return s.spansDropped }

// Violations returns invariant breaches detected online (empty on a
// healthy run).
func (s *Set) Violations() []string { return s.violations }
