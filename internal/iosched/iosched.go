// Package iosched implements the two Linux block-layer IO schedulers the
// paper integrates MittOS into: the noop (FIFO) scheduler (§4.1) and a
// structurally faithful CFQ (§4.2) with per-class service trees
// (RealTime/BestEffort/Idle), per-process nodes holding offset-sorted
// red-black trees of pending IOs, priority-scaled time slices, and RealTime
// preemption. It adds Linux's deadline scheduler (§3.4). Every ordered
// structure here is the one weighted red-black tree of rbtree.go: CFQ's
// request trees and the deadline sort weigh each request 0, and CFQ's
// service trees weigh each process node by its predicted IO time, so that
// MittCFQ's "time ahead of me" is a prefix sum.
//
// Simplifications vs. Linux CFQ, documented for reviewers: within a class,
// process nodes are served round-robin with slice lengths scaled by ionice
// priority (Linux additionally biases tree position by priority), and there
// is no anticipatory idling (noidle mode). Neither affects the property
// MittCFQ depends on: IOs already accepted can be pushed back by
// later-arriving higher-class IOs.
package iosched

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// Downstream is the device below a scheduler: a blockio.Device with
// device-queue backpressure (the NCQ boundary).
type Downstream interface {
	blockio.Device
	// CanAccept reports whether the device queue has a free slot.
	CanAccept() bool
	// SetSlotFreeHook registers the scheduler's refill callback.
	SetSlotFreeHook(func())
}

// Noop is the FIFO scheduler: arriving IOs enter a dispatch queue whose
// items are absorbed into the device queue as slots free up (§4.1).
type Noop struct {
	eng      *sim.Engine
	down     Downstream
	fifo     []*blockio.Request
	rec      *metrics.Recorder
	dropHook func(*blockio.Request)
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (n *Noop) SetRecorder(rec *metrics.Recorder) { n.rec = rec }

// SetDropHook registers a tap invoked when a cancelled request is discarded
// from the dispatch queue (so accounting layers can release its state).
func (n *Noop) SetDropHook(fn func(*blockio.Request)) { n.dropHook = fn }

// NewNoop builds a noop scheduler over the device.
func NewNoop(eng *sim.Engine, down Downstream) *Noop {
	n := &Noop{eng: eng, down: down}
	down.SetSlotFreeHook(n.pump)
	return n
}

// Submit implements blockio.Device.
func (n *Noop) Submit(req *blockio.Request) {
	if req.SubmitTime == 0 {
		req.SubmitTime = n.eng.Now()
	}
	n.rec.SchedEnter(metrics.RSchedNoop, req)
	n.fifo = append(n.fifo, req)
	n.pump()
}

// InFlight implements blockio.Device.
func (n *Noop) InFlight() int { return len(n.fifo) + n.down.InFlight() }

// QueueLen returns the dispatch-queue length (excludes device-queue IOs).
func (n *Noop) QueueLen() int { return len(n.fifo) }

func (n *Noop) pump() {
	for n.down.CanAccept() && len(n.fifo) > 0 {
		req := n.fifo[0]
		n.fifo = n.fifo[1:]
		if req.Canceled() {
			if n.dropHook != nil {
				n.dropHook(req)
			}
			n.rec.SchedDrop(metrics.RSchedNoop, req)
			req.Dropped()
			continue
		}
		n.rec.SchedExit(metrics.RSchedNoop, req)
		n.down.Submit(req)
	}
}

// CFQConfig tunes the CFQ model.
type CFQConfig struct {
	// SliceBase is the minimum time slice (lowest priority).
	SliceBase time.Duration
	// SliceStep is the additional slice per priority level above 7.
	SliceStep time.Duration
	// Quantum caps the IOs outstanding at the device (Linux cfq_quantum):
	// CFQ keeps the device queue shallow so its own ordering stays in
	// control instead of delegating everything to NCQ reordering.
	Quantum int
}

// DefaultCFQConfig returns Linux-scale slices (slice_sync is ~100ms for the
// highest priority) and a quantum of 1: the disk model is a serial server,
// so deeper NCQ queues buy no throughput and only surrender ordering
// control (and hence MittOS cancellation coverage) to device-level
// reordering.
func DefaultCFQConfig() CFQConfig {
	return CFQConfig{SliceBase: 40 * time.Millisecond, SliceStep: 10 * time.Millisecond, Quantum: 1}
}

// Slice returns the time slice granted to a node of the given priority
// (0 = highest → longest slice).
func (c CFQConfig) Slice(prio int) time.Duration {
	if prio < 0 {
		prio = 0
	}
	if prio > 7 {
		prio = 7
	}
	return c.SliceBase + time.Duration(7-prio)*c.SliceStep
}

// procNode is one process' queue inside CFQ.
type procNode struct {
	proc  int
	class blockio.Class
	prio  int
	tree  rbTree[*blockio.Request]
	// total is the admission layer's predicted total IO time charged to
	// this node (§4.2: "MittCFQ keeps track of the predicted total IO time
	// of each process node"); contrib is the slice-clamped value that
	// weighs the node on its service tree — min(total, Slice(prio)) while
	// the node has queued IOs, 0 otherwise.
	total   time.Duration
	contrib time.Duration
	// st is the node's slot on its class service tree (nil while active or
	// idle); stRank is the class rank it was enqueued under, which lags
	// class until the node is re-enqueued (ionice semantics).
	st     *rbNode[*procNode]
	stRank int
	// headPos is the offset dispatch resumes from (ascending elevator).
	headPos int64
}

// denseProcs bounds the O(1) proc→node lookup array; processes with IDs
// outside [0, denseProcs) fall back to the map.
const denseProcs = 1024

// CFQ is the Completely Fair Queueing scheduler model.
type CFQ struct {
	eng  *sim.Engine
	cfg  CFQConfig
	down Downstream

	dense    []*procNode          // proc → node for small non-negative IDs
	nodes    map[int]*procNode    // fallback for IDs outside the dense range
	st       [3]rbTree[*procNode] // round-robin per class rank (0 = RT)
	active   *procNode
	sliceEnd sim.Time

	queued       int
	slots        devSlots
	dispatched   uint64
	dispatchHook func(*blockio.Request)
	dropHook     func(*blockio.Request)
	rec          *metrics.Recorder
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (c *CFQ) SetRecorder(rec *metrics.Recorder) { c.rec = rec }

// SetDropHook registers a tap invoked when a cancelled request is discarded
// from the CFQ queues (so accounting layers can release its charge).
func (c *CFQ) SetDropHook(fn func(*blockio.Request)) { c.dropHook = fn }

// SetDispatchHook registers a tap invoked when an IO leaves the CFQ queues
// for the device — the moment it stops being cancellable (§7.8.2).
func (c *CFQ) SetDispatchHook(fn func(*blockio.Request)) { c.dispatchHook = fn }

// NewCFQ builds a CFQ scheduler over the device.
func NewCFQ(eng *sim.Engine, cfg CFQConfig, down Downstream) *CFQ {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1
	}
	c := &CFQ{eng: eng, cfg: cfg, down: down, nodes: make(map[int]*procNode)}
	c.slots.pump = c.pump
	down.SetSlotFreeHook(c.slots.pump)
	return c
}

// Submit implements blockio.Device. The request's Proc/Class/Priority choose
// (or create) its process node, mirroring ionice semantics.
func (c *CFQ) Submit(req *blockio.Request) {
	if req.SubmitTime == 0 {
		req.SubmitTime = c.eng.Now()
	}
	c.rec.SchedEnter(metrics.RSchedCFQ, req)
	node := c.node(req.Proc)
	// ionice changes apply to subsequent IOs.
	node.class = req.Class
	node.prio = req.Priority
	node.tree.Insert(req.Offset, req, 0)
	c.queued++
	c.refreshContrib(node)
	if node.st == nil && node != c.active {
		c.enqueue(node)
	}
	c.pump()
}

// enqueue appends the node to the tail of its class round-robin.
func (c *CFQ) enqueue(n *procNode) {
	n.stRank = n.class.Rank()
	n.st = c.st[n.stRank].Insert(0, n, n.contrib)
}

// lookup returns the proc's node, or nil.
func (c *CFQ) lookup(proc int) *procNode {
	if proc >= 0 && proc < len(c.dense) {
		return c.dense[proc]
	}
	return c.nodes[proc]
}

func (c *CFQ) node(proc int) *procNode {
	if n := c.lookup(proc); n != nil {
		return n
	}
	n := &procNode{proc: proc, class: blockio.ClassBestEffort, prio: 4}
	if proc >= 0 && proc < denseProcs {
		if proc >= len(c.dense) {
			grown := make([]*procNode, proc+1)
			copy(grown, c.dense)
			c.dense = grown
		}
		c.dense[proc] = n
	} else {
		c.nodes[proc] = n
	}
	return n
}

// refreshContrib recomputes the node's slice-clamped contribution after a
// change to its total, priority, or queued-IO count, moving its service
// tree weight by the delta when it is enqueued.
func (c *CFQ) refreshContrib(n *procNode) {
	var nc time.Duration
	if n.tree.Len() > 0 {
		nc = n.total
		if s := c.cfg.Slice(n.prio); nc > s {
			nc = s
		}
	}
	if nc == n.contrib {
		return
	}
	delta := nc - n.contrib
	n.contrib = nc
	if n.st != nil {
		c.st[n.stRank].addWeight(n.st, delta)
	}
}

// InFlight implements blockio.Device.
func (c *CFQ) InFlight() int { return c.queued + c.down.InFlight() }

// QueueLen returns the number of IOs held in CFQ queues (not yet at the
// device).
func (c *CFQ) QueueLen() int { return c.queued }

// Dispatched returns the total number of IOs sent to the device.
func (c *CFQ) Dispatched() uint64 { return c.dispatched }

// Remove drops a still-queued request from its process node (MittCFQ's late
// cancellation path). It returns false if the request already left for the
// device.
func (c *CFQ) Remove(req *blockio.Request) bool {
	n := c.lookup(req.Proc)
	if n == nil {
		return false
	}
	x := n.tree.Find(req.Offset, req)
	if x == nil {
		return false
	}
	n.tree.Delete(x)
	c.queued--
	c.refreshContrib(n)
	c.rec.SchedRemove(metrics.RSchedCFQ, req)
	return true
}

// AddProcCharge adds predicted IO time to the proc's node total — MittCFQ's
// per-node accounting (§4.2), kept on the node so its service tree can
// weigh it.
func (c *CFQ) AddProcCharge(proc int, d time.Duration) {
	n := c.node(proc)
	n.total += d
	c.refreshContrib(n)
}

// ReleaseProcCharge returns predicted IO time to the proc's node when an IO
// dispatches, cancels, or drops, flooring at zero.
func (c *CFQ) ReleaseProcCharge(proc int, d time.Duration) {
	n := c.node(proc)
	if t := n.total - d; t > 0 {
		n.total = t
	} else {
		n.total = 0
	}
	c.refreshContrib(n)
}

// ProcCharge returns the proc's unclamped charged total.
func (c *CFQ) ProcCharge(proc int) time.Duration {
	if n := c.lookup(proc); n != nil {
		return n.total
	}
	return 0
}

// AheadCharge returns the slice-clamped charge sum of every process node
// CFQ would service before a newly arriving IO from `proc` at the given
// class — the weighted-tree form of the ProcsAheadOf walk: the active
// node's clamped charge plus one total (or prefix) query per class rank,
// O(log P) total. ProcsAheadOf remains as the tests' walking oracle; the
// two agree exactly because integer addition is order-independent and both
// apply the same inclusion and clamping rules.
func (c *CFQ) AheadCharge(proc int, class blockio.Class) time.Duration {
	var sum time.Duration
	rank := class.Rank()
	if c.active != nil && c.active.proc != proc && c.active.tree.Len() > 0 &&
		rank >= c.active.class.Rank() {
		sum += c.active.contrib
	}
	pn := c.lookup(proc)
	for r := 0; r <= rank; r++ {
		t := &c.st[r]
		if t.Len() == 0 {
			continue
		}
		if pn != nil && pn.st != nil && pn.stRank == r {
			if r < rank {
				// The walk skips the proc's own node wherever it sits.
				sum += t.total() - pn.contrib
			} else {
				// Same class: only nodes ahead in round-robin order count.
				sum += t.prefixBefore(pn.st)
			}
		} else {
			sum += t.total()
		}
	}
	return sum
}

// IsAheadOf reports whether candidate's node is among the processes CFQ
// would service before a new IO from proc at the given class — the O(log P)
// membership form of ProcsAheadOf, used when charging bumped entries.
func (c *CFQ) IsAheadOf(candidate, proc int, class blockio.Class) bool {
	if candidate == proc {
		return false
	}
	cn := c.lookup(candidate)
	if cn == nil || cn.tree.Len() == 0 {
		return false
	}
	rank := class.Rank()
	if cn == c.active {
		return rank >= c.active.class.Rank()
	}
	if cn.st == nil {
		return false
	}
	if cn.stRank > rank {
		return false
	}
	if cn.stRank < rank {
		return true
	}
	// Same class: everyone already queued is ahead of a newly-joining node
	// (RR tail insertion). If proc is already on the RR, nodes before it
	// are ahead.
	pn := c.lookup(proc)
	if pn == nil || pn.st == nil || pn.stRank != rank {
		return true
	}
	return cn.st.key.less(pn.st.key)
}

// pump dispatches IOs while the device accepts them, keeping at most
// Quantum outstanding.
func (c *CFQ) pump() {
	for c.down.CanAccept() && c.slots.used < c.cfg.Quantum {
		if c.needNewSlice() {
			c.selectNext()
		}
		if c.active == nil {
			return
		}
		req := c.dispatchFrom(c.active)
		if req == nil {
			// Node drained mid-slice; pick another immediately (noidle).
			c.active = nil
			continue
		}
		c.queued--
		if req.Canceled() {
			if c.dropHook != nil {
				c.dropHook(req)
			}
			c.rec.SchedDrop(metrics.RSchedCFQ, req)
			req.Dropped()
			continue
		}
		c.rec.SchedExit(metrics.RSchedCFQ, req)
		c.dispatched++
		c.slots.take(req)
		if c.dispatchHook != nil {
			c.dispatchHook(req)
		}
		c.down.Submit(req)
	}
}

func (c *CFQ) needNewSlice() bool {
	if c.active == nil || c.active.tree.Len() == 0 {
		return true
	}
	if c.eng.Now() >= c.sliceEnd {
		return true
	}
	// RealTime preemption: an RT node waiting preempts lower classes.
	if c.active.class != blockio.ClassRealTime && c.st[blockio.ClassRealTime.Rank()].Len() > 0 {
		return true
	}
	return false
}

// selectNext expires the active node and picks the next per CFQ policy:
// "always picks IOs from the RealTime tree first, and then from BestEffort
// and Idle. In the chosen tree, it picks a node in round robin style,
// proportional to its time slice."
func (c *CFQ) selectNext() {
	if c.active != nil {
		if c.active.tree.Len() > 0 {
			// Unfinished node goes to the back of its class RR.
			c.enqueue(c.active)
		}
		c.active = nil
	}
	for r := 0; r < 3; r++ {
		for c.st[r].Len() > 0 {
			n := c.st[r].PopMin()
			n.st = nil
			if n.tree.Len() == 0 {
				continue
			}
			c.active = n
			c.sliceEnd = c.eng.Now().Add(c.cfg.Slice(n.prio))
			return
		}
	}
}

// dispatchFrom pops the node's next IO in ascending elevator order, or
// returns nil when the node has none.
func (c *CFQ) dispatchFrom(n *procNode) *blockio.Request {
	x := n.tree.CeilingFrom(n.headPos)
	if x == nil {
		// Wrap the elevator.
		if x = n.tree.Min(); x == nil {
			return nil
		}
	}
	req := x.val
	n.tree.Delete(x)
	c.refreshContrib(n)
	n.headPos = req.End()
	return req
}

// devSlots counts a scheduler's device-resident IOs and pools the
// completion wrapper it installs at dispatch, which returns the device slot
// and refills the device queue. CFQ and the deadline scheduler share it.
type devSlots struct {
	used int    // IOs dispatched and not yet complete
	pump func() // the scheduler's refill
	pool sim.Freelist[slotDone]
}

type slotDone struct {
	s    *devSlots
	prev func(*blockio.Request)
	fn   func(*blockio.Request) // pre-bound d.done
}

func newSlotDone() *slotDone { d := &slotDone{}; d.fn = d.done; return d }

func (d *slotDone) done(r *blockio.Request) {
	s, prev := d.s, d.prev
	d.prev = nil
	s.pool.Put(d)
	s.used--
	if prev != nil {
		prev(r)
	}
	s.pump()
}

// take occupies a device slot for req and chains the slot's release onto
// its completion.
func (s *devSlots) take(req *blockio.Request) {
	s.used++
	d := s.pool.Get(newSlotDone)
	d.s, d.prev = s, req.OnComplete
	req.OnComplete = d.fn
}
