package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
)

// MittDeadline integrates MittOS with the deadline IO scheduler —
// demonstrating that the admission principle carries across queueing
// disciplines (§3.4 names "noop/FIFO, CFQ, anticipatory, etc."). The
// deadline scheduler dispatches in sorted batches with FIFO-expiry
// preemption, so a newly arriving read's wait is bounded by the total
// predicted service of everything queued ahead of it plus the
// device-resident work; MittDeadline keeps that total as a running O(1)
// accumulator (reads only — queued writes can be starved behind it).
type MittDeadline struct {
	eng   *sim.Engine
	sched *iosched.DeadlineSched
	prof  *disk.Profile
	opt   Options
	dec   decider

	mirror *sstfMirror

	// queueTotal tracks the predicted service time of scheduler-held
	// requests per direction (0=read, 1=write).
	queueTotal [2]time.Duration

	accepted uint64
	rejected uint64
}

// NewMittDeadline builds the layer over a deadline scheduler.
func NewMittDeadline(eng *sim.Engine, sched *iosched.DeadlineSched,
	prof *disk.Profile, opt Options) *MittDeadline {
	m := &MittDeadline{
		eng: eng, sched: sched, prof: prof, opt: opt,
		mirror: newSSTFMirror(eng, prof, opt.Calibrate),
	}
	m.dec.thop = opt.Thop
	m.dec.shadow = opt.Shadow
	sched.SetDispatchHook(func(req *blockio.Request) {
		dir := 0
		if req.Op == blockio.Write {
			dir = 1
		}
		if t := m.queueTotal[dir] - req.PredictedService; t > 0 {
			m.queueTotal[dir] = t
		} else {
			m.queueTotal[dir] = 0
		}
		m.mirror.add(req)
		prev := req.OnComplete
		req.OnComplete = func(r *blockio.Request) {
			m.mirror.complete(r)
			if prev != nil {
				prev(r)
			}
		}
	})
	return m
}

// Accuracy returns shadow-mode counters.
func (m *MittDeadline) Accuracy() Accuracy { return m.dec.acc }

// Counts returns accepted/rejected totals.
func (m *MittDeadline) Counts() (accepted, rejected uint64) { return m.accepted, m.rejected }

// PredictWait estimates a new read's queueing delay: device drain + all
// queued reads (they sort ahead or behind, but the batch visits everything
// within ~one sweep) + expired writes' batch share.
func (m *MittDeadline) PredictWait() time.Duration {
	wait := m.mirror.drainTime() + m.queueTotal[0]
	// One write batch can interleave per WritesStarved read batches; the
	// conservative bound charges the queued writes' share.
	if m.queueTotal[1] > 0 {
		share := m.queueTotal[1] / time.Duration(m.sched.Config().WritesStarved)
		wait += share
	}
	return wait
}

// SubmitSLO implements Target.
func (m *MittDeadline) SubmitSLO(req *blockio.Request, onDone func(error)) {
	now := m.eng.Now()
	if req.SubmitTime == 0 {
		req.SubmitTime = now
	}
	wait := m.PredictWait()
	svc := m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size)
	req.PredictedWait = wait
	req.PredictedService = svc

	hasSLO := req.Deadline > blockio.NoDeadline
	rawBusy := hasSLO && wait > m.dec.threshold(req.Deadline)
	if hasSLO {
		if m.dec.shadow {
			req.ShadowBusy = rawBusy
		} else if m.dec.rejects(rawBusy) {
			m.rejected++
			busyErr := &BusyError{PredictedWait: wait}
			m.eng.After(m.opt.SyscallCost, func() { onDone(busyErr) })
			return
		}
	}

	m.accepted++
	dir := 0
	if req.Op == blockio.Write {
		dir = 1
	}
	m.queueTotal[dir] += svc

	prev := req.OnComplete
	req.OnComplete = func(r *blockio.Request) {
		if hasSLO && m.dec.shadow {
			actualWait := r.Latency() - svc
			if actualWait < 0 {
				actualWait = 0
			}
			m.dec.observe(rawBusy, wait, actualWait, r.Deadline)
		}
		err := r.Err // read before prev: the previous hook may recycle r
		if prev != nil {
			prev(r)
		}
		onDone(err)
	}
	m.sched.Submit(req)
}
