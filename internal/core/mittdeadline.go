package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/metrics"
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
	waitGate
	sched *iosched.DeadlineSched

	mirror *sstfMirror

	// queueTotal tracks the predicted service time of scheduler-held
	// requests per direction (0=read, 1=write).
	queueTotal [2]time.Duration
}

// NewMittDeadline builds the layer over a deadline scheduler.
func NewMittDeadline(eng *sim.Engine, sched *iosched.DeadlineSched,
	prof *disk.Profile, opt Options) *MittDeadline {
	m := &MittDeadline{
		waitGate: waitGate{gate: newGate(eng, metrics.RMittDeadline, opt)},
		sched:    sched,
		mirror:   newSSTFMirror(eng, prof, opt.Calibrate),
	}
	sched.SetDispatchHook(m.onDispatch)
	sched.SetDropHook(m.onDrop)
	return m
}

func dirOf(op blockio.Op) int {
	if op == blockio.Write {
		return 1
	}
	return 0
}

// uncharge takes a request's predicted service off the queued total once it
// leaves the scheduler.
func (m *MittDeadline) uncharge(req *blockio.Request) {
	dir := dirOf(req.Op)
	if t := m.queueTotal[dir] - req.PredictedService; t > 0 {
		m.queueTotal[dir] = t
	} else {
		m.queueTotal[dir] = 0
	}
}

// onDispatch fires when an IO leaves the scheduler for the device: its
// predicted service moves from the queued total to the device mirror.
func (m *MittDeadline) onDispatch(req *blockio.Request) {
	m.uncharge(req)
	req.SchedPriv = nil
	m.mirror.dispatched(req)
}

// onDrop fires when the scheduler discards a request revoked by its owner
// before dispatch: release its charge and reclaim its op — the completion
// callback will never run.
func (m *MittDeadline) onDrop(req *blockio.Request) {
	m.uncharge(req)
	if op, ok := req.SchedPriv.(*gateOp); ok {
		m.unwind(req, op)
	}
}

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
	op := m.admit(req, m.PredictWait(),
		m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size), onDone)
	if op == nil {
		return
	}
	m.queueTotal[dirOf(req.Op)] += op.svc
	req.SchedPriv = op
	m.sched.Submit(req)
}
