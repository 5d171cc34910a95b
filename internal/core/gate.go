package core

import (
	"math"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// gate is the admission machinery every Mitt* layer embeds: the accepted
// and rejected counters, the metrics recorder, the miscalibration fault,
// shadow-mode accuracy, the pooled EBUSY reply, and the pooled completion
// op that scores each admitted IO's prediction. A layer supplies only its
// predictor and its resource state; the gate's SetMiscalibration,
// Accuracy, Counts and SetRecorder are the layer's own.
type gate struct {
	eng    *sim.Engine
	res    metrics.Resource
	rec    *metrics.Recorder
	thop   time.Duration
	shadow bool

	// Miscalibration fault injection: every predicted wait becomes
	// wait×misScale + misBias before it is compared or returned. Unlike
	// error injection's coin flips this distorts the prediction itself —
	// the §8.1 "profile goes stale" failure, where the predictor is wrong
	// in a structured way rather than randomly.
	misBias  time.Duration
	misScale float64 // 0 = no scaling

	acc      Accuracy
	accepted uint64
	rejected uint64

	replies busyReplies
	ops     sim.Freelist[gateOp]
	// layer settles completed IOs; nil when the layer keeps no completion
	// bookkeeping.
	layer settler
}

// settler is a layer's completion bookkeeping (its SSTF mirror, Tdiff
// calibration or tolerable-time entry), run once the op has scored the
// prediction and before the caller's callbacks. An interface rather than a
// bound method value, so wiring it into the gate allocates nothing.
type settler interface {
	settle(op *gateOp, r *blockio.Request)
}

func newGate(eng *sim.Engine, res metrics.Resource, opt Options) gate {
	return gate{eng: eng, res: res, thop: opt.Thop, shadow: opt.Shadow,
		replies: busyReplies{eng: eng, cost: opt.SyscallCost}}
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (g *gate) SetRecorder(rec *metrics.Recorder) { g.rec = rec }

// SetMiscalibration distorts every wait prediction to wait×scale + bias
// (scale ≥ 0, 0 = no scaling; (0,0) restores the calibrated predictor).
// This is the §8.1 stale-profile fault: the predictor is wrong in a
// structured way.
func (g *gate) SetMiscalibration(bias time.Duration, scale float64) {
	g.misBias, g.misScale = bias, scale
}

// Accuracy returns the shadow-mode counters (§7.6).
func (g *gate) Accuracy() Accuracy { return g.acc }

// Counts returns accepted/rejected totals.
func (g *gate) Counts() (accepted, rejected uint64) { return g.accepted, g.rejected }

// maxWait is the largest representable wait; miscalibrated predictions
// saturate there instead of wrapping round to "no wait at all".
const maxWait = time.Duration(math.MaxInt64)

// adjust applies the injected miscalibration to a predicted wait, floored
// at zero and saturating at maxWait. Both knobs zero (the default) returns
// wait unchanged through a single branch.
func (g *gate) adjust(wait time.Duration) time.Duration {
	if g.misBias == 0 && g.misScale == 0 {
		return wait
	}
	if g.misScale != 0 {
		if f := float64(wait) * g.misScale; f < float64(maxWait) {
			wait = time.Duration(f)
		} else {
			wait = maxWait
		}
	}
	if g.misBias > 0 && wait > maxWait-g.misBias {
		return maxWait
	}
	wait += g.misBias
	if wait < 0 {
		wait = 0
	}
	return wait
}

// threshold returns the admission bound for a deadline: deadline + Thop.
func (g *gate) threshold(deadline time.Duration) time.Duration {
	return deadline + g.thop
}

// observe records shadow-mode accuracy for a completed IO. verdictBusy is
// the *raw* prediction (before injection); actualWait and predictedWait are
// the measured and predicted queueing delays.
func (g *gate) observe(verdictBusy bool, predictedWait, actualWait, deadline time.Duration) {
	violated := actualWait > g.threshold(deadline)
	switch {
	case verdictBusy && violated:
		g.acc.TruePos++
	case verdictBusy && !violated:
		g.acc.FalsePos++
	case !verdictBusy && violated:
		g.acc.FalseNeg++
	default:
		g.acc.TrueNeg++
	}
	diff := actualWait - predictedWait
	if diff < 0 {
		diff = -diff
	}
	g.acc.SumAbsDiff += diff
}

// reject counts and records a fast EBUSY at admission and delivers it: the
// IO is never queued (§3.3 "the rejected request is not queued; it is
// automatically cancelled").
func (g *gate) reject(req *blockio.Request, wait time.Duration, onDone func(error)) {
	g.rejected++
	g.rec.Rejected(g.res, req, wait, false)
	g.replies.busy(onDone, wait)
}

// gateOp is the pooled per-IO completion context of an admitted IO: it
// scores the prediction (shadow accuracy and the prediction-error metric),
// settles the IO with its layer, then chains the previous completion hook
// and hands the device verdict up.
type gateOp struct {
	g        *gate
	prev     func(*blockio.Request)
	onDone   func(error)
	fn       func(*blockio.Request) // pre-bound op.done
	wait     time.Duration
	svc      time.Duration
	entry    *cfqEntry // MittCFQ: the IO's tolerable-time entry, if any
	predDone sim.Time  // naive MittNoop: predicted completion, for Tdiff
	shadow   bool      // deadline-carrying IO admitted in shadow mode
	rawBusy  bool      // the verdict shadow mode recorded
}

func newGateOp() *gateOp { op := &gateOp{}; op.fn = op.done; return op }

func (op *gateOp) done(r *blockio.Request) {
	g := op.g
	if op.shadow || g.rec != nil {
		actualWait := r.Latency() - op.svc
		if actualWait < 0 {
			actualWait = 0
		}
		if op.shadow {
			g.observe(op.rawBusy, op.wait, actualWait, r.Deadline)
		}
		g.rec.Prediction(g.res, r, op.wait, actualWait)
	}
	if g.layer != nil {
		g.layer.settle(op, r)
	}
	prev, onDone := op.prev, op.onDone
	g.release(op)
	err := r.Err // read before prev: the previous hook may recycle r
	if prev != nil {
		prev(r)
	}
	onDone(err)
}

func (g *gate) release(op *gateOp) {
	op.prev, op.onDone, op.entry = nil, nil, nil
	g.ops.Put(op)
}

// unwind takes back the op of an admitted IO that will never complete — one
// dropped or cancelled before dispatch — and restores the request's
// completion chain.
func (g *gate) unwind(req *blockio.Request, op *gateOp) {
	req.OnComplete = op.prev
	req.SchedPriv = nil
	g.release(op)
}

// waitGate is the gate of the layers whose verdict compares a predicted
// wait with deadline + Thop (§3.3, §4.1–§4.3): MittNoop, MittCFQ, MittSSD
// and MittDeadline. It adds §7.7 error injection and admit, the one
// function that makes the decision.
type waitGate struct {
	gate
	injFN  float64 // P(suppress a busy verdict)
	injFP  float64 // P(reject an acceptable IO)
	injRNG *sim.RNG
}

// SetErrorInjection enables §7.7 fault injection.
func (g *waitGate) SetErrorInjection(fnRate, fpRate float64, rng *sim.RNG) {
	g.injFN, g.injFP, g.injRNG = fnRate, fpRate, rng
}

// rejects converts the raw busy prediction into the effective decision,
// applying injected errors.
func (g *waitGate) rejects(busy bool) bool {
	if busy && g.injFN > 0 && g.injRNG != nil && g.injRNG.Bool(g.injFN) {
		return false
	}
	if !busy && g.injFP > 0 && g.injRNG != nil && g.injRNG.Bool(g.injFP) {
		return true
	}
	return busy
}

// admit decides an IO the layer predicts will wait `wait` and then take
// `svc` to serve. It stamps both predictions (the wait miscalibrated) on
// the request and, for a deadline-carrying IO, compares the wait with
// deadline + Thop: shadow mode records the raw verdict on the request;
// otherwise a busy verdict, or an injected flip, is rejected and EBUSY is
// on its way. An admitted IO gets its completion op chained on and
// returned, for the layer's own bookkeeping before it queues the IO; a
// rejected one returns nil.
func (g *waitGate) admit(req *blockio.Request, wait, svc time.Duration, onDone func(error)) *gateOp {
	if req.SubmitTime == 0 {
		req.SubmitTime = g.eng.Now()
	}
	wait = g.adjust(wait)
	req.PredictedWait = wait
	req.PredictedService = svc

	hasSLO := req.Deadline > blockio.NoDeadline
	rawBusy := hasSLO && wait > g.threshold(req.Deadline)
	if hasSLO {
		if g.shadow {
			req.ShadowBusy = rawBusy
			if rawBusy {
				g.rec.ShadowBusy(g.res)
			}
		} else if g.rejects(rawBusy) {
			g.reject(req, wait, onDone)
			return nil
		}
	}
	g.accepted++
	g.rec.Admitted(g.res, req)
	op := g.ops.Get(newGateOp)
	op.g = &g.gate
	op.wait, op.svc = wait, svc
	op.shadow, op.rawBusy = hasSLO && g.shadow, rawBusy
	op.prev, op.onDone = req.OnComplete, onDone
	req.OnComplete = op.fn
	return op
}

// busyReplies delivers EBUSY after the syscall round trip ("only takes
// <5µs", §3.3), pooling the timer callbacks so a rejection allocates only
// its BusyError, which escapes to the caller and cannot be pooled.
type busyReplies struct {
	eng  *sim.Engine
	cost time.Duration
	pool sim.Freelist[busyReply]
}

type busyReply struct {
	c      *busyReplies
	onDone func(error)
	err    *BusyError
	fn     func() // pre-bound r.fire
}

func newBusyReply() *busyReply { r := &busyReply{}; r.fn = r.fire; return r }

func (r *busyReply) fire() {
	c, onDone, err := r.c, r.onDone, r.err
	r.onDone, r.err = nil, nil
	c.pool.Put(r)
	onDone(err)
}

// busy schedules onDone(EBUSY carrying the predicted wait).
func (c *busyReplies) busy(onDone func(error), wait time.Duration) {
	r := c.pool.Get(newBusyReply)
	r.c, r.onDone, r.err = c, onDone, &BusyError{PredictedWait: wait}
	c.eng.After(c.cost, r.fn)
}

// plainOps pools the plain completion wrapper of IOs that need no scoring —
// Vanilla's, and MittCache's hits and absorbed writes: chain the previous
// completion hook, then hand the device verdict up.
type plainOps struct {
	pool sim.Freelist[plainOp]
}

type plainOp struct {
	c      *plainOps
	prev   func(*blockio.Request)
	onDone func(error)
	fn     func(*blockio.Request) // pre-bound op.done
}

func newPlainOp() *plainOp { op := &plainOp{}; op.fn = op.done; return op }

func (op *plainOp) done(r *blockio.Request) {
	c, prev, onDone := op.c, op.prev, op.onDone
	op.prev, op.onDone = nil, nil
	c.pool.Put(op)
	err := r.Err // read before prev: the previous hook may recycle r
	if prev != nil {
		prev(r)
	}
	onDone(err)
}

// wrap chains a pooled plain wrapper onto req.
func (c *plainOps) wrap(req *blockio.Request, onDone func(error)) {
	op := c.pool.Get(newPlainOp)
	op.c, op.prev, op.onDone = c, req.OnComplete, onDone
	req.OnComplete = op.fn
}
