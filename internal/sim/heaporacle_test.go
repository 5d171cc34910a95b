package sim

// EventHeap is the engine's former event queue — a hand-specialized binary
// min-heap over (time, seq) with tombstone cancellation, 50%-tombstone
// compaction, and an owned-event freelist — retained verbatim after the
// timing-wheel rewrite as the differential-testing oracle: FuzzEngineWheel
// drives an Engine and an EventHeap with the same byte program and demands
// identical fire order and Now() trajectories.
//
// It is not used by Engine and has no Ticker/metrics surface; it mirrors
// exactly the scheduling semantics the simulation depends on.
type EventHeap struct {
	now        Time
	seq        uint64
	heap       []*HeapEvent
	free       []*HeapEvent
	nLive      int
	nCancelled int
	fired      uint64
	halted     bool
}

// HeapEvent is the oracle's cancellation handle, mirroring Event.
type HeapEvent struct {
	at        Time
	seq       uint64
	fn        func()
	h         *EventHeap
	owned     bool
	cancelled bool
}

// Time reports when the event fires.
func (e *HeapEvent) Time() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *HeapEvent) Cancelled() bool { return e.cancelled }

// Cancel tombstones the event; the heap compacts when tombstones outnumber
// live events.
func (e *HeapEvent) Cancel() {
	if e.cancelled || e.fn == nil {
		return
	}
	e.cancelled = true
	e.fn = nil
	h := e.h
	h.nLive--
	h.nCancelled++
	if h.nCancelled > len(h.heap)/2 {
		h.compact()
	}
}

// NewEventHeap returns a heap-backed queue positioned at virtual time zero.
func NewEventHeap() *EventHeap { return &EventHeap{} }

// Now returns the current virtual time.
func (h *EventHeap) Now() Time { return h.now }

// Fired returns the number of events executed so far.
func (h *EventHeap) Fired() uint64 { return h.fired }

// Pending returns the number of scheduled, not-cancelled events.
func (h *EventHeap) Pending() int { return h.nLive }

// Schedule runs fn after delay d and returns a cancellation handle.
func (h *EventHeap) Schedule(d Duration, fn func()) *HeapEvent {
	if d < 0 {
		d = 0
	}
	return h.At(h.now.Add(d), fn)
}

// At runs fn at absolute virtual time t and returns a cancellation handle.
func (h *EventHeap) At(t Time, fn func()) *HeapEvent {
	return h.post(t, fn, false)
}

// After runs fn after delay d, fire-and-forget through the freelist.
func (h *EventHeap) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	h.post(h.now.Add(d), fn, true)
}

// FireAt is the absolute-time form of After.
func (h *EventHeap) FireAt(t Time, fn func()) {
	h.post(t, fn, true)
}

func (h *EventHeap) post(t Time, fn func(), owned bool) *HeapEvent {
	if fn == nil {
		panic("sim: schedule called with nil callback")
	}
	if t < h.now {
		t = h.now
	}
	var ev *HeapEvent
	if n := len(h.free); owned && n > 0 {
		ev = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	} else {
		ev = &HeapEvent{h: h}
	}
	ev.at, ev.seq, ev.fn, ev.owned, ev.cancelled = t, h.seq, fn, owned, false
	h.seq++
	h.push(ev)
	h.nLive++
	return ev
}

// Step executes the next event, if any, and reports whether one ran.
func (h *EventHeap) Step() bool {
	for len(h.heap) > 0 {
		ev := h.pop()
		if ev.cancelled {
			h.nCancelled--
			continue
		}
		h.nLive--
		if ev.at > h.now {
			h.now = ev.at
		}
		fn := ev.fn
		ev.fn = nil
		if ev.owned {
			h.free = append(h.free, ev)
		}
		h.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Halt is called.
func (h *EventHeap) Run() {
	h.halted = false
	for !h.halted {
		if !h.Step() {
			return
		}
	}
}

// RunUntil executes events with timestamps ≤ t, then sets the clock to t.
// Like Engine.RunUntil, a Halt that leaves due events queued also leaves
// the clock where the halt happened, so the two trajectories stay
// comparable in the differential fuzzer.
func (h *EventHeap) RunUntil(t Time) {
	h.halted = false
	for !h.halted {
		ev := h.peek()
		if ev == nil || ev.at > t {
			break
		}
		h.Step()
	}
	if h.now < t {
		if ev := h.peek(); ev == nil || ev.at > t {
			h.now = t
		}
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (h *EventHeap) Halt() { h.halted = true }

// Reset returns the queue to its initial state, keeping the freelist and
// the heap's backing array.
func (h *EventHeap) Reset() {
	for i, ev := range h.heap {
		ev.fn = nil
		ev.cancelled = true
		if ev.owned {
			h.free = append(h.free, ev)
		}
		h.heap[i] = nil
	}
	h.heap = h.heap[:0]
	h.now, h.seq, h.fired = 0, 0, 0
	h.nLive, h.nCancelled = 0, 0
	h.halted = false
}

func (h *EventHeap) peek() *HeapEvent {
	for len(h.heap) > 0 {
		if ev := h.heap[0]; ev.cancelled {
			h.pop()
			h.nCancelled--
			continue
		}
		return h.heap[0]
	}
	return nil
}

// heapBefore reports whether a fires strictly before b.
func heapBefore(a, b *HeapEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *EventHeap) push(ev *HeapEvent) {
	hp := append(h.heap, ev)
	h.heap = hp
	i := len(hp) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapBefore(hp[i], hp[parent]) {
			break
		}
		hp[i], hp[parent] = hp[parent], hp[i]
		i = parent
	}
}

func (h *EventHeap) pop() *HeapEvent {
	hp := h.heap
	n := len(hp)
	ev := hp[0]
	last := hp[n-1]
	hp[n-1] = nil
	hp = hp[:n-1]
	h.heap = hp
	if len(hp) > 0 {
		hp[0] = last
		h.siftDown(0)
	}
	return ev
}

func (h *EventHeap) siftDown(i int) {
	hp := h.heap
	n := len(hp)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && heapBefore(hp[right], hp[left]) {
			min = right
		}
		if !heapBefore(hp[min], hp[i]) {
			break
		}
		hp[i], hp[min] = hp[min], hp[i]
		i = min
	}
}

// compact removes cancelled tombstones and re-heapifies.
func (h *EventHeap) compact() {
	hp := h.heap
	kept := hp[:0]
	for _, ev := range hp {
		if ev.cancelled {
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(hp); i++ {
		hp[i] = nil
	}
	h.heap = kept
	h.nCancelled = 0
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
