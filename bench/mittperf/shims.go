package main

import (
	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
)

// Layer-boundary shims for the traced run. Each wraps one public interface
// of a layer, opens a span around the call into it, and otherwise passes
// the call through untouched: no events are scheduled and no RNG is drawn,
// so a traced leg simulates exactly what an untraced one does (the
// non-perturbation test pins this). Completion contexts are pooled like the
// layers' own, so tracing adds no per-request allocations.

// cbPool pools one shim's completion contexts; each wraps the caller's
// callback in a span of the pool's kind.
type cbPool[R any] struct {
	t    *tracer
	kind spanKind
	free []*cbOp[R]
}

type cbOp[R any] struct {
	p      *cbPool[R]
	req    uint64
	onDone func(R)
	fn     func(R) // pre-bound op.done
}

func (p *cbPool[R]) wrap(onDone func(R)) *cbOp[R] {
	var op *cbOp[R]
	if n := len(p.free); n > 0 {
		op = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		op = &cbOp[R]{p: p}
		op.fn = op.done
	}
	op.req, op.onDone = p.t.nextID(), onDone
	return op
}

func (op *cbOp[R]) done(res R) {
	p, onDone, req := op.p, op.onDone, op.req
	op.onDone = nil
	p.free = append(p.free, op)
	p.t.begin(p.kind, req)
	onDone(res)
	p.t.end()
}

// getShim wraps a read strategy: a span for Get and one for its completion.
type getShim struct {
	inner cluster.Strategy
	cb    cbPool[cluster.GetResult]
}

func newGetShim(inner cluster.Strategy, t *tracer) *getShim {
	return &getShim{inner: inner, cb: cbPool[cluster.GetResult]{t: t, kind: spanClusterGetCB}}
}

func (s *getShim) Name() string { return s.inner.Name() }

func (s *getShim) Get(key int64, onDone func(cluster.GetResult)) {
	op := s.cb.wrap(onDone)
	s.cb.t.begin(spanClusterGet, op.req)
	s.inner.Get(key, op.fn)
	s.cb.t.end()
}

// putShim is getShim for the write path.
type putShim struct {
	inner cluster.PutStrategy
	cb    cbPool[cluster.PutResult]
}

func newPutShim(inner cluster.PutStrategy, t *tracer) *putShim {
	return &putShim{inner: inner, cb: cbPool[cluster.PutResult]{t: t, kind: spanClusterPutCB}}
}

func (s *putShim) Name() string { return s.inner.Name() }

func (s *putShim) Put(key int64, onDone func(cluster.PutResult)) {
	op := s.cb.wrap(onDone)
	s.cb.t.begin(spanClusterPut, op.req)
	s.inner.Put(key, op.fn)
	s.cb.t.end()
}

// devShim wraps a plain block device (a noise sink, or the device under
// node-ssd's page cache) with a span of its kind per Submit and a submit
// count.
type devShim struct {
	inner blockio.Device
	t     *tracer
	kind  spanKind
	subs  uint64
}

func (d *devShim) Submit(req *blockio.Request) {
	d.subs++
	d.t.begin(d.kind, req.ID)
	d.inner.Submit(req)
	d.t.end()
}

func (d *devShim) InFlight() int { return d.inner.InFlight() }

// targetShim wraps an SLO-aware target (node-ssd's MittCache, as seen from
// the kv store) with a span per SubmitSLO.
type targetShim struct {
	inner core.Target
	t     *tracer
}

func (s *targetShim) SubmitSLO(req *blockio.Request, onDone func(error)) {
	s.t.begin(spanCoreSubmit, req.ID)
	s.inner.SubmitSLO(req, onDone)
	s.t.end()
}
