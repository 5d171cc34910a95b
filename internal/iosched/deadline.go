package iosched

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// DeadlineConfig tunes the deadline scheduler model.
type DeadlineConfig struct {
	// ReadExpire / WriteExpire bound how long a request may sit in its
	// FIFO before it preempts sorted dispatch (Linux defaults: 500ms/5s).
	ReadExpire  time.Duration
	WriteExpire time.Duration
	// FifoBatch is the number of sorted requests dispatched per batch.
	FifoBatch int
	// WritesStarved caps consecutive read batches before writes get one.
	WritesStarved int
}

// DefaultDeadlineConfig mirrors the Linux deadline scheduler's defaults.
func DefaultDeadlineConfig() DeadlineConfig {
	return DeadlineConfig{
		ReadExpire:    500 * time.Millisecond,
		WriteExpire:   5 * time.Second,
		FifoBatch:     16,
		WritesStarved: 2,
	}
}

// DeadlineSched models Linux's deadline IO scheduler (§3.4 lists it among
// the disciplines an EBUSY predictor must understand): per-direction
// offset-sorted dispatch in batches, with arrival-order FIFOs whose expiry
// preempts sorting, and read preference bounded by write starvation.
//
// Note the name collision is historical, not semantic: the *scheduler's*
// expiries are internal fairness knobs; MittOS deadlines are application
// SLOs layered on top (MittDeadline in internal/core).
type DeadlineSched struct {
	eng  *sim.Engine
	cfg  DeadlineConfig
	down Downstream

	sorted [2]rbTree[*blockio.Request] // by offset, per direction (0=read, 1=write)
	fifo   [2][]*blockio.Request       // arrival order, per direction

	headPos    int64
	batchLeft  int
	batchDir   int
	starved    int
	queued     int
	slots      devSlots
	dispatched uint64

	dispatchHook func(*blockio.Request)
	dropHook     func(*blockio.Request)
}

// NewDeadline builds the scheduler over the device.
func NewDeadline(eng *sim.Engine, cfg DeadlineConfig, down Downstream) *DeadlineSched {
	if cfg.FifoBatch <= 0 {
		cfg.FifoBatch = 1
	}
	if cfg.WritesStarved <= 0 {
		cfg.WritesStarved = 1
	}
	d := &DeadlineSched{eng: eng, cfg: cfg, down: down}
	d.slots.pump = d.pump
	down.SetSlotFreeHook(d.slots.pump)
	return d
}

// Config returns the scheduler configuration.
func (d *DeadlineSched) Config() DeadlineConfig { return d.cfg }

// SetDispatchHook registers a tap on device-bound requests.
func (d *DeadlineSched) SetDispatchHook(fn func(*blockio.Request)) { d.dispatchHook = fn }

// SetDropHook registers a tap invoked when a cancelled request is discarded
// before dispatch (so accounting layers can release its charge).
func (d *DeadlineSched) SetDropHook(fn func(*blockio.Request)) { d.dropHook = fn }

func dirOf(op blockio.Op) int {
	if op == blockio.Write {
		return 1
	}
	return 0
}

// Submit implements blockio.Device.
func (d *DeadlineSched) Submit(req *blockio.Request) {
	if req.SubmitTime == 0 {
		req.SubmitTime = d.eng.Now()
	}
	dir := dirOf(req.Op)
	d.sorted[dir].Insert(req.Offset, req, 0)
	d.fifo[dir] = append(d.fifo[dir], req)
	d.queued++
	d.pump()
}

// InFlight implements blockio.Device.
func (d *DeadlineSched) InFlight() int { return d.queued + d.down.InFlight() }

// Dispatched returns total requests sent to the device.
func (d *DeadlineSched) Dispatched() uint64 { return d.dispatched }

// expiry returns the FIFO deadline for a direction.
func (d *DeadlineSched) expiry(dir int) time.Duration {
	if dir == 1 {
		return d.cfg.WriteExpire
	}
	return d.cfg.ReadExpire
}

// expiredHead reports whether the direction's oldest request has expired.
func (d *DeadlineSched) expiredHead(dir int) *blockio.Request {
	d.pruneFifo(dir)
	if len(d.fifo[dir]) == 0 {
		return nil
	}
	head := d.fifo[dir][0]
	if d.eng.Now().Sub(head.SubmitTime) > d.expiry(dir) {
		return head
	}
	return nil
}

// pruneFifo drops cancelled heads.
func (d *DeadlineSched) pruneFifo(dir int) {
	for len(d.fifo[dir]) > 0 && d.fifo[dir][0].Canceled() {
		d.fifo[dir] = d.fifo[dir][1:]
	}
}

// pump dispatches while the device accepts, keeping one request outstanding
// (like CFQ's quantum: the serial disk gains nothing from deeper NCQ and
// the scheduler keeps revocation control).
func (d *DeadlineSched) pump() {
	for d.down.CanAccept() && d.slots.used < 1 {
		req := d.next()
		if req == nil {
			return
		}
		d.queued--
		if req.Canceled() {
			if d.dropHook != nil {
				d.dropHook(req)
			}
			req.Dropped()
			continue
		}
		d.dispatched++
		d.slots.take(req)
		if d.dispatchHook != nil {
			d.dispatchHook(req)
		}
		d.down.Submit(req)
	}
}

// next picks per the deadline policy.
func (d *DeadlineSched) next() *blockio.Request {
	// Continue the current batch while sorted successors exist.
	if d.batchLeft > 0 {
		if n := d.sorted[d.batchDir].CeilingFrom(d.headPos); n != nil {
			return d.take(d.batchDir, n)
		}
		d.batchLeft = 0
	}
	// Choose a direction: reads preferred; writes when starved or no reads.
	dir := 0
	hasReads := d.sorted[0].Len() > 0
	hasWrites := d.sorted[1].Len() > 0
	switch {
	case !hasReads && !hasWrites:
		return nil
	case !hasReads:
		dir = 1
	case hasWrites && d.starved >= d.cfg.WritesStarved:
		dir = 1
	}
	if dir == 1 {
		d.starved = 0
	} else if hasWrites {
		d.starved++
	}
	// Expired head preempts sorted order; otherwise resume the elevator.
	var start *rbNode[*blockio.Request]
	if head := d.expiredHead(dir); head != nil {
		start = d.sorted[dir].Find(head.Offset, head)
	} else if start = d.sorted[dir].CeilingFrom(d.headPos); start == nil {
		start = d.sorted[dir].Min() // wrap
	}
	if start == nil {
		return nil
	}
	d.batchDir = dir
	d.batchLeft = d.cfg.FifoBatch
	return d.take(dir, start)
}

// take removes a request's node from the sort and the request from its
// FIFO, advances the elevator, and returns the request.
func (d *DeadlineSched) take(dir int, n *rbNode[*blockio.Request]) *blockio.Request {
	req := n.val
	d.sorted[dir].Delete(n)
	for i, r := range d.fifo[dir] {
		if r == req {
			d.fifo[dir] = append(d.fifo[dir][:i], d.fifo[dir][i+1:]...)
			break
		}
	}
	d.headPos = req.End()
	if d.batchLeft > 0 {
		d.batchLeft--
	}
	return req
}
