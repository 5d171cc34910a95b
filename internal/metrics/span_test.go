package metrics

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// TestSecondTerminalIsAViolation: an IO that delivers two terminal verdicts
// breaks the exactly-once invariant, whichever terminals they are, and the
// span checker must flag it exactly once.
func TestSecondTerminalIsAViolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(r *Recorder, req *blockio.Request)
	}{
		{"IOEnd", func(r *Recorder, req *blockio.Request) { r.IOEnd(req, nil, false) }},
		{"SchedDrop", func(r *Recorder, req *blockio.Request) {
			r.SchedEnter(RSchedCFQ, req)
			r.SchedDrop(RSchedCFQ, req)
		}},
		{"DevDrop", func(r *Recorder, req *blockio.Request) {
			r.DevEnter(RDisk, req)
			r.DevDrop(RDisk, req)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := New(sim.NewEngine(), 1, -1)
			r := set.Node(0)
			req := &blockio.Request{ID: 7, Op: blockio.Read}
			r.IOBegin(req)
			tc.first(r, req)
			if v := set.Violations(); len(v) != 0 {
				t.Fatalf("one terminal already flagged: %v", v)
			}
			r.IOEnd(req, nil, false)
			if v := set.Violations(); len(v) != 1 {
				t.Fatalf("second terminal after %s: %d violations %v, want 1", tc.name, len(v), v)
			}
			if sp := set.Spans()[0]; sp.Terminals != 2 {
				t.Fatalf("span counts %d terminals, want 2", sp.Terminals)
			}
		})
	}
}

// TestDoubleCompletionCountsBoth: the counters still see every delivery, so
// a double completion shows there as well as in Violations.
func TestDoubleCompletionCountsBoth(t *testing.T) {
	set := New(sim.NewEngine(), 1, -1)
	r := set.Node(0)
	req := &blockio.Request{ID: 1, Op: blockio.Read}
	r.IOBegin(req)
	r.IOEnd(req, nil, false)
	r.IOEnd(req, nil, false)
	if got := set.Counter(RNode, CCompleted); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
	if len(set.Violations()) != 1 {
		t.Fatalf("violations = %v, want 1", set.Violations())
	}
}

// TestReusedRequestIsNotAViolation: a pooled request recycles at its
// terminal and comes back as a fresh IO, traced or — past the cap — not.
// Neither reuse is a second terminal.
func TestReusedRequestIsNotAViolation(t *testing.T) {
	for _, traceMax := range []int{-1, 1} {
		set := New(sim.NewEngine(), 1, traceMax)
		r := set.Node(0)
		req := &blockio.Request{ID: 1, Op: blockio.Read}
		for i := 0; i < 3; i++ {
			r.IOBegin(req)
			if i%2 == 0 {
				r.IOEnd(req, nil, false)
			} else {
				r.IOEnd(req, blockio.ErrBusy, true)
			}
		}
		if v := set.Violations(); len(v) != 0 {
			t.Fatalf("trace cap %d: reuse flagged: %v", traceMax, v)
		}
		wantSpans := 3
		if traceMax == 1 {
			wantSpans = 1
		}
		if got := len(set.Spans()); got != wantSpans {
			t.Fatalf("trace cap %d: %d spans, want %d", traceMax, got, wantSpans)
		}
		for _, sp := range set.Spans() {
			if sp.Terminals != 1 {
				t.Fatalf("trace cap %d: span %+v has %d terminals", traceMax, sp, sp.Terminals)
			}
		}
	}
}

// TestResubmitInFlightIsAViolation: the boundary sees an IO still in flight
// submitted again.
func TestResubmitInFlightIsAViolation(t *testing.T) {
	set := New(sim.NewEngine(), 1, -1)
	r := set.Node(0)
	req := &blockio.Request{ID: 3, Op: blockio.Write}
	r.IOBegin(req)
	r.IOBegin(req)
	if v := set.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want 1", v)
	}
}

// TestGaugesReturnToZero: every way out of a queue undoes the way in.
func TestGaugesReturnToZero(t *testing.T) {
	set := New(sim.NewEngine(), 1, 0)
	r := set.Node(0)
	reqs := make([]*blockio.Request, 3)
	for i := range reqs {
		reqs[i] = &blockio.Request{ID: uint64(i), Op: blockio.Read}
		r.SchedEnter(RSchedCFQ, reqs[i])
	}
	r.SchedExit(RSchedCFQ, reqs[0])
	r.SchedDrop(RSchedCFQ, reqs[1])
	r.SchedRemove(RSchedCFQ, reqs[2])

	r.DevEnter(RDisk, reqs[0])
	r.DevEnter(RDisk, reqs[1])
	r.DevDone(RDisk, reqs[0])
	r.DevDrop(RDisk, reqs[1])

	for _, tc := range []struct {
		res Resource
		max int64
	}{{RSchedCFQ, 3}, {RDisk, 2}} {
		if g := set.gauges[tc.res]; g.Cur != 0 || g.Max != tc.max {
			t.Errorf("%s gauge cur=%d max=%d, want 0/%d", tc.res, g.Cur, g.Max, tc.max)
		}
	}
}

// TestTraceCapCountsDropped: IOs past the cap are counted, not traced.
func TestTraceCapCountsDropped(t *testing.T) {
	set := New(sim.NewEngine(), 1, 2)
	r := set.Node(0)
	for i := 0; i < 5; i++ {
		r.IOBegin(&blockio.Request{ID: uint64(i), Op: blockio.Read})
	}
	if got := len(set.Spans()); got != 2 {
		t.Fatalf("%d spans, want 2", got)
	}
	if got := set.SpansDropped(); got != 3 {
		t.Fatalf("SpansDropped = %d, want 3", got)
	}
	if got := set.Counter(RNode, CSubmitted); got != 5 {
		t.Fatalf("submitted = %d, want 5", got)
	}
}

// TestNilRecorderIsNoOp: the disabled recorder accepts every call.
func TestNilRecorderIsNoOp(t *testing.T) {
	var set *Set
	r := set.Node(0)
	if r != nil {
		t.Fatalf("nil Set handed out recorder %v", r)
	}
	req := &blockio.Request{ID: 1, Op: blockio.Read}
	r.IOBegin(req)
	r.Incr(RNode, CSubmitted)
	r.SchedEnter(RSchedCFQ, req)
	r.SchedExit(RSchedCFQ, req)
	r.SchedDrop(RSchedCFQ, req)
	r.SchedRemove(RSchedCFQ, req)
	r.DevEnter(RDisk, req)
	r.DevStart(RDisk, req)
	r.DevDone(RDisk, req)
	r.DevDrop(RDisk, req)
	r.Admitted(RMittCFQ, req)
	r.Rejected(RMittCFQ, req, time.Millisecond, false)
	r.Observe(RNode, HPutQuorum, blockio.Write, time.Millisecond)
	r.ShadowBusy(RMittCFQ)
	r.Prediction(RMittCFQ, req, time.Millisecond, 2*time.Millisecond)
	r.IOEnd(req, nil, false)
	if req.SubmitTime != 0 {
		t.Fatalf("nil recorder stamped the request: %+v", req)
	}
}
