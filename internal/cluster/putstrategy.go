package cluster

import (
	"errors"
	"time"

	"mittos/internal/core"
)

// ErrQuorumFailed reports a replicated put that could not assemble W acks.
// The write may still be durable on the acking minority.
var ErrQuorumFailed = errors.New("cluster: write quorum failed")

// PutResult reports one finished user-level replicated put.
type PutResult struct {
	Latency time.Duration
	// Acks is how many replicas had acknowledged when the verdict fired.
	Acks int
	// Copies is how many copies had been sent by then, extras included.
	Copies int
	// Err is non-nil only when the quorum failed (ErrQuorumFailed).
	Err error
}

// PutStrategy issues one client put against the cluster and reports the
// user-observed quorum verdict — the write-side mirror of Strategy.
type PutStrategy interface {
	Name() string
	Put(key int64, onDone func(PutResult))
}

// Name implements PutStrategy: the label the experiments print.
func (*BasePut) Name() string    { return "Base" }
func (*TimeoutPut) Name() string { return "AppTO" }
func (*HedgedPut) Name() string  { return "Hedged" }
func (*MittOSPut) Name() string  { return "MittOS" }

// quorumVerdict is a quorumState transition.
type quorumVerdict int

// Verdicts returned by quorumState.report.
const (
	quorumPending quorumVerdict = iota // no terminal yet
	quorumReached                      // this reply delivered the Wth ack
	quorumLate                         // reply after the terminal verdict
)

// quorumState is the W-of-N ack assembly of one put: copies go out via add,
// replies come back via report, and one terminal is reached — the Wth ack,
// or fail. Copies target distinct nodes, so acks need no dedup. It has no
// cluster plumbing, so FuzzQuorumPut drives it against a reference model.
type quorumState struct {
	w      int
	copies int // copies sent
	acks   int
	busy   int
	down   int
	errs   int
	done   bool
}

// add records n more copies sent.
func (q *quorumState) add(n int) { q.copies += n }

// pending reports copies still awaiting a reply.
func (q *quorumState) pending() int { return q.copies - q.acks - q.busy - q.down - q.errs }

// report classifies one reply. Late replies are tallied too, so after a
// full drain acks+busy+down+errs == copies.
func (q *quorumState) report(err error) quorumVerdict {
	late := q.done
	switch {
	case err == nil:
		q.acks++
	case core.IsBusy(err):
		q.busy++
	case errors.Is(err, ErrNodeDown):
		q.down++
	default:
		q.errs++
	}
	if late {
		return quorumLate
	}
	if err == nil && q.acks >= q.w {
		q.done = true
		return quorumReached
	}
	return quorumPending
}

// fail marks the failure terminal: nothing left to send can reach W.
func (q *quorumState) fail() { q.done = true }

// PutCounters is the accounting every put strategy embeds. Late replies are
// counted too, so after a drain CopiesSent == Acks+Busy+NodeDown+Errors and
// Puts == Quorums+Failed.
type PutCounters struct {
	Puts       uint64 // user-level puts issued
	CopiesSent uint64 // replica copies sent (base + extras)
	Acks       uint64
	Busy       uint64 // EBUSY fast rejections
	NodeDown   uint64 // crashed-replica refusals
	Errors     uint64 // WAL write failures (EIO)
	Quorums    uint64 // puts that assembled W acks
	Failed     uint64 // puts that exhausted every option short of W
	// WastedWrites counts executed replies of extra copies that landed after
	// the verdict; base replica copies are replication, never waste.
	WastedWrites uint64
}

func (pc *PutCounters) count(err error) {
	switch {
	case err == nil:
		pc.Acks++
	case core.IsBusy(err):
		pc.Busy++
	case errors.Is(err, ErrNodeDown):
		pc.NodeDown++
	default:
		pc.Errors++
	}
}

// BasePut is vanilla quorum replication: one copy to each of the R replicas
// with no SLO, ack at the Wth reply. The straggler tail IS the user tail
// whenever the W replies include a contended replica.
type BasePut struct {
	C *Cluster
	// W is the ack quorum; 0 means majority (R/2+1).
	W int

	PutCounters
}

// Put implements PutStrategy.
func (s *BasePut) Put(key int64, onDone func(PutResult)) {
	s.C.startPut(s, &s.PutCounters, key, s.W, onDone, 0, noTimer)
}

func (s *BasePut) reply(*op, *attempt, error) {}

// handoff sends the missing acks' worth of extra copies to the next ring
// nodes (a sloppy quorum) and reports whether any went out.
func (o *op) handoff() bool {
	sent := false
	for i := o.q.w - o.q.acks; i > 0; i-- {
		n := o.takeRing()
		if n < 0 {
			break
		}
		sent = true
		o.send(n, 0, noTimer).extra = true
	}
	return sent
}

// handoffDown hands a crashed replica's copy to the ring at once rather than
// after the timer, counting it in retries unless that is nil.
func (o *op) handoffDown(err error, retries *uint64) {
	if !errors.Is(err, ErrNodeDown) {
		return
	}
	if n := o.takeRing(); n >= 0 {
		if retries != nil {
			*retries++
		}
		o.send(n, 0, noTimer).extra = true
	}
}

// TimeoutPut is the "AppTO" write: after a conservative timeout, hand the
// missing acks off to the next ring nodes. Stragglers land regardless, so
// their late acks are wasted writes. A crash refusal is handed off at once.
type TimeoutPut struct {
	C  *Cluster
	TO time.Duration
	// W is the ack quorum; 0 means majority (R/2+1).
	W int

	PutCounters
	Retries uint64
}

// Put implements PutStrategy.
func (s *TimeoutPut) Put(key int64, onDone func(PutResult)) {
	s.C.startPut(s, &s.PutCounters, key, s.W, onDone, 0, s.TO)
}

func (s *TimeoutPut) reply(o *op, _ *attempt, err error) { o.handoffDown(err, &s.Retries) }

func (s *TimeoutPut) fire(o *op, _ *attempt) {
	if !o.q.done && o.handoff() {
		s.Retries++
	}
}

// HedgedPut is the Dean & Barroso hedge applied to writes: past the
// expected p95, duplicate the missing acks onto the next ring nodes; a crash
// refusal hedges at once. The losers are pure write amplification.
type HedgedPut struct {
	C          *Cluster
	HedgeAfter time.Duration
	// W is the ack quorum; 0 means majority (R/2+1).
	W int

	PutCounters
	Hedges uint64
}

// Put implements PutStrategy.
func (s *HedgedPut) Put(key int64, onDone func(PutResult)) {
	s.C.startPut(s, &s.PutCounters, key, s.W, onDone, 0, s.HedgeAfter)
}

func (s *HedgedPut) reply(o *op, _ *attempt, err error) { o.handoffDown(err, nil) }

func (s *HedgedPut) fire(o *op, _ *attempt) {
	if !o.q.done && o.handoff() {
		s.Hedges++
	}
}

// MittOSPut is the paper's write path: every copy carries the deadline, so
// a contended WAL answers EBUSY in one RTT and the copy fails over to the
// next ring node. With the ring spent short of W, a last-ditch pass re-sends
// to rejectors without a deadline (§5), least busy first under UseWaitHint.
type MittOSPut struct {
	C        *Cluster
	Deadline time.Duration
	// W is the ack quorum; 0 means majority (R/2+1).
	W int
	// UseWaitHint ranks last-ditch targets by predicted wait, not rejection order.
	UseWaitHint bool

	PutCounters
	Failovers uint64
	LastDitch uint64
}

// Put implements PutStrategy.
func (s *MittOSPut) Put(key int64, onDone func(PutResult)) {
	s.C.startPut(s, &s.PutCounters, key, s.W, onDone, s.Deadline, noTimer)
}

func (s *MittOSPut) reply(o *op, a *attempt, err error) {
	busy := core.IsBusy(err)
	if busy {
		o.rejects = append(o.rejects, reject{a.node, busyWait(err)})
	}
	if busy || errors.Is(err, ErrNodeDown) {
		// Instant failover, still with the deadline: a refusal costs one RTT.
		if n := o.takeRing(); n >= 0 {
			s.Failovers++
			o.send(n, s.Deadline, noTimer).extra = true
			return
		}
	}
	if o.q.w-o.q.acks > o.q.pending() {
		s.lastDitch(o)
	}
}

// lastDitch re-targets rejectors without a deadline; they ran nothing for
// the rejected copy, so no work is duplicated.
func (s *MittOSPut) lastDitch(o *op) {
	for need := o.q.w - o.q.acks - o.q.pending(); need > 0 && len(o.rejects) > 0; need-- {
		best := 0
		if s.UseWaitHint {
			for j := 1; j < len(o.rejects); j++ {
				if o.rejects[j].wait < o.rejects[best].wait {
					best = j
				}
			}
		}
		n := o.rejects[best].node
		o.rejects[best] = o.rejects[len(o.rejects)-1]
		o.rejects = o.rejects[:len(o.rejects)-1]
		if s.C.Nodes[n].Down() {
			continue
		}
		s.LastDitch++
		o.send(n, 0, noTimer).extra = true
	}
}
