// Package core implements MittOS itself: the fast-rejecting, SLO-aware IO
// admission layer the paper contributes (§3–§4). One Mitt* type wraps each
// resource manager:
//
//   - MittNoop  — the noop disk scheduler (§4.1): O(1) TnextFree tracking
//     with Tdiff calibration against a profiled seek-cost model.
//   - MittCFQ   — the CFQ scheduler (§4.2): O(P) per-process-node wait
//     accounting plus the tolerable-time hash table that cancels accepted
//     IOs bumped back by higher-priority arrivals.
//   - MittSSD   — host-managed SSD (§4.3): per-chip next-free times and
//     channel-occupancy costs, with GC visibility.
//   - MittCache — the OS page cache (§4.4): residency walks for read() and
//     addrcheck(), EBUSY only on memory-space contention, background
//     swap-in after rejection.
//
// Three more carry the principle past the paper's four managers:
// MittDeadline over the deadline IO scheduler (§3.4), MittSMR over a
// shingled drive's band cleaning (§8.2), and ThroughputSLO's per-tenant
// IOPS contracts (§8.1). All seven implement Target, as does Vanilla, the
// no-MittOS passthrough of Base runs. Rejection is delivered as
// blockio.ErrBusy — immediately at admission, or late (MittCFQ only) when a
// queued IO's deadline becomes unmeetable.
//
// The decision itself lives in one place, the gate every Mitt* layer
// embeds (gate.go); a layer supplies only its predictor and its resource
// state. The wait-predicting layers (MittNoop, MittCFQ, MittSSD,
// MittDeadline) also support the paper's two measurement modes: shadow mode
// (§7.6: the EBUSY verdict is recorded on the descriptor instead of being
// returned, so actual latency can be compared against the prediction) and
// error injection (§7.7: forced false-negative/false-positive rates).
package core

import (
	"errors"
	"fmt"
	"time"

	"mittos/internal/blockio"
)

// DefaultThop is the one-hop failover allowance added to deadlines at
// admission: "Thop is a constant of 0.3ms one-hop failover in our testbed"
// (§4.1).
const DefaultThop = 300 * time.Microsecond

// DefaultSyscallCost models making a system call and receiving EBUSY:
// "only takes <5µs" (§3.3).
const DefaultSyscallCost = 2 * time.Microsecond

// Target is a deadline-aware storage endpoint: requests with a Deadline are
// admission-checked; requests without one pass through untouched ("keep
// existing OS policies", §3.3).
type Target interface {
	// SubmitSLO submits the request. Exactly one of the following happens:
	// onDone(req.Err) after the IO completes (nil on success, ErrIO under
	// error injection), or onDone(blockio.ErrBusy) if the IO is rejected
	// (possibly after initial acceptance, for MittCFQ's late
	// cancellation). onDone runs in virtual time.
	SubmitSLO(req *blockio.Request, onDone func(error))
}

// BusyError is the enriched EBUSY carrying the predicted wait — the paper's
// proposed extension "having MittOS return EBUSY with wait time, to allow a
// 4th retry to the least busy node" (§5, §7.8.1, §8.1). errors.Is(err,
// blockio.ErrBusy) holds for every BusyError.
type BusyError struct {
	// PredictedWait is the queueing delay MittOS predicted when rejecting.
	PredictedWait time.Duration
}

// Error implements the error interface.
func (e *BusyError) Error() string {
	return fmt.Sprintf("%v (predicted wait %v)", blockio.ErrBusy, e.PredictedWait)
}

// Unwrap makes errors.Is(err, blockio.ErrBusy) true.
func (e *BusyError) Unwrap() error { return blockio.ErrBusy }

// IsBusy reports whether err is an EBUSY rejection.
func IsBusy(err error) bool { return errors.Is(err, blockio.ErrBusy) }

// Accuracy accumulates the §7.6 prediction-quality counters. A false
// positive is an EBUSY verdict for an IO that would have met its deadline; a
// false negative is an accepted IO that missed it.
type Accuracy struct {
	TruePos  int // busy verdict, deadline indeed missed
	TrueNeg  int // accepted, deadline met
	FalsePos int
	FalseNeg int
	// SumAbsDiff accumulates |actual wait − predicted wait| over verdicted
	// IOs, for the "how far off are we" analysis (§7.6: diffs <3ms disk,
	// <1ms SSD).
	SumAbsDiff time.Duration
}

// Total returns the number of verdicted IOs.
func (a Accuracy) Total() int { return a.TruePos + a.TrueNeg + a.FalsePos + a.FalseNeg }

// FalsePosRate returns the false-positive fraction over all verdicted IOs.
func (a Accuracy) FalsePosRate() float64 {
	if a.Total() == 0 {
		return 0
	}
	return float64(a.FalsePos) / float64(a.Total())
}

// FalseNegRate returns the false-negative fraction over all verdicted IOs.
func (a Accuracy) FalseNegRate() float64 {
	if a.Total() == 0 {
		return 0
	}
	return float64(a.FalseNeg) / float64(a.Total())
}

// InaccuracyRate returns (FP+FN)/total.
func (a Accuracy) InaccuracyRate() float64 {
	if a.Total() == 0 {
		return 0
	}
	return float64(a.FalsePos+a.FalseNeg) / float64(a.Total())
}

// MeanAbsDiff returns the mean |actual − predicted| wait error.
func (a Accuracy) MeanAbsDiff() time.Duration {
	if a.Total() == 0 {
		return 0
	}
	return a.SumAbsDiff / time.Duration(a.Total())
}

// Options configures a Mitt layer.
type Options struct {
	// Thop is the failover-hop allowance added to deadlines (§4.1).
	Thop time.Duration
	// SyscallCost models the EBUSY system-call round trip (§3.3).
	SyscallCost time.Duration
	// Shadow enables §7.6 accuracy mode: verdicts are recorded, never
	// enforced.
	Shadow bool
	// Calibrate enables Tdiff feedback (§4.1).
	Calibrate bool
	// Naive switches MittNoop to the strawman predictor: one FIFO
	// TnextFree accumulator with no SSTF modeling. Together with
	// Calibrate=false this is the "without our precision improvements"
	// ablation whose inaccuracy §7.6 reports as high as 47%.
	Naive bool
}

// DefaultOptions returns the paper's constants.
func DefaultOptions() Options {
	return Options{
		Thop:        DefaultThop,
		SyscallCost: DefaultSyscallCost,
		Calibrate:   true,
	}
}

// clampDur bounds a duration into [lo, hi].
func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Vanilla is the no-MittOS passthrough Target used by Base runs: deadlines
// are ignored, every IO queues and waits, onDone receives the device's
// completion verdict (nil unless error injection is on).
type Vanilla struct {
	Dev blockio.Device

	ops plainOps
}

// SubmitSLO implements Target.
func (v *Vanilla) SubmitSLO(req *blockio.Request, onDone func(error)) {
	v.ops.wrap(req, onDone)
	v.Dev.Submit(req)
}
