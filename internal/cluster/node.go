// Package cluster implements the distributed NoSQL store of the paper's
// evaluation (§5, §7): replica nodes with a full local storage stack
// (device → IO scheduler → optional page cache → KV engine, with or without
// MittOS), a shared-CPU model for colocated server processes, and the
// client-side request strategies the paper compares — Base, application
// timeout, cloning, tied requests, hedged requests, snitching, C3 adaptive
// replica selection, and MittOS instant failover.
//
// A node serves every get and put through one path: a pooled serveCtx runs
// the CPU stage, the SLO-aware KV call and the response stage, and owes its
// caller exactly one verdict. Calls over the network share one pooled
// callCtx, and IOs enter the storage stack through one span boundary.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/kv"
	"mittos/internal/metrics"
	"mittos/internal/netsim"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/ssd"
)

// ErrNodeDown is the verdict a crashed node's callers receive: every
// in-flight get or put when the node dies (the connection drops), and every
// new call until Revive.
var ErrNodeDown = errors.New("cluster: node down")

// ErrRevoked resolves the serve callback of a get whose cancelled IO was
// dropped from a queue before reaching the device: the server will never
// answer (the client revoked the request itself), so the callback chain is
// terminated synchronously instead of left dangling — which is what lets
// pooled client-side per-op contexts be reclaimed instead of leaking on
// every timed-out-then-dropped attempt. It never reaches users; strategies
// treat it as "attempt resolved silently": no reply hop, no wasted IO.
var ErrRevoked = errors.New("cluster: request revoked")

// DeviceKind selects a node's storage medium.
type DeviceKind int

// Storage media.
const (
	DeviceDisk DeviceKind = iota
	DeviceSSD
)

// NodeConfig shapes one replica node.
type NodeConfig struct {
	Index  int
	Device DeviceKind
	// DiskConfig applies when Device == DeviceDisk.
	DiskConfig disk.Config
	// SSDConfig applies when Device == DeviceSSD.
	SSDConfig ssd.Config
	// UseCFQ selects CFQ over noop for disk nodes (SSDs always bypass the
	// scheduler, as §4.3 prescribes).
	UseCFQ bool
	// Mitt enables the MittOS admission layer; off = vanilla Linux.
	Mitt bool
	// MittOptions configure the admission layer when enabled.
	MittOptions core.Options
	// CachePages > 0 inserts an OS page cache of that size, fronted by
	// MittCache when Mitt is set.
	CachePages int
	// Mmap selects the §5 MongoDB read path (addrcheck + page faults)
	// instead of read(); requires Mitt and CachePages.
	Mmap bool
	// Keys is the KV keyspace preloaded on this node.
	Keys int64
	// CPU, when non-nil, charges CPUPerOp per request stage on the shared
	// pool — the §7.5 colocated-processes model.
	CPU      *CPUPool
	CPUPerOp time.Duration
	// DiskProfile is the offline profile MittNoop/MittCFQ consume. One
	// profile is shared fleet-wide (same device model).
	DiskProfile *disk.Profile
	// Metrics, when non-nil, threads a per-node metrics recorder through
	// every layer of the node's storage stack and wraps its entry points
	// with the per-IO span boundary. Nil (the default) costs nothing.
	Metrics *metrics.Set
	// Pools, when non-nil, is the shared freelist bundle the node (and the
	// cluster built from the same template) draws its per-op contexts from.
	// An experiment arena passes one Pools across consecutive legs so a new
	// fleet starts with every pool warm; nil gets a private bundle.
	Pools *Pools
	// SSDPool, when non-nil, recycles SSD devices across fleets: an SSD
	// node takes a reset device from the pool, keeping the FTL leaves and
	// per-IO pools its last leg grew, instead of building a device that
	// grows them again. The owner reclaims devices at teardown with
	// SSDPool.Put(node.SSD).
	SSDPool *ssd.Pool
}

// Pools bundles every per-op freelist of a node fleet: serve contexts,
// revocation handles, replica-call contexts, client ops and their attempts,
// and the block-layer request pool the KV stores draw from. Contexts rebind
// their owner (node or cluster) at acquire time, so one bundle can serve any
// number of fleets — sequentially, never concurrently — and an experiment
// arena can carry a warm bundle across legs instead of re-growing every pool
// from zero.
type Pools struct {
	serves  sim.Freelist[serveCtx]
	handles sim.Freelist[ServeHandle]
	calls   sim.Freelist[callCtx]
	// Client strategy ops and their replica attempts. These live here rather
	// than on the strategy structs because experiments build a fresh strategy
	// per leg: pooling per strategy would start every leg cold AND lose any
	// op a wedged IO stranded past the leg's drain window. Ops rebind their
	// owning strategy at acquire, exactly like the serve contexts above.
	ops      sim.Freelist[op]
	attempts sim.Freelist[attempt]
	// Reqs is the shared block-IO request pool; nodes point their KV
	// stores and page caches at it. (Requests recycle into the pool that
	// created them, so the bundle must outlive every fleet using it.)
	Reqs blockio.Pool
	// Pages is the shared page-cache slab; cached nodes draw their
	// resident-set page structs from it.
	Pages oscache.PageSlab
}

// TargetDevice adapts a core.Target to blockio.Device, so components that
// speak the plain device interface (the page cache's read-through path,
// noise tenants) still enter through the MittOS block layer — in the real
// kernel MittOS sees every tenant's IOs, which is exactly what its wait
// accounting relies on. Pooled requests marked AutoFree recycle here once
// their IO ends.
type TargetDevice struct {
	T        core.Target
	inflight int
	ops      sim.Freelist[tdOp]
}

// tdOp is the adapter's pooled per-IO completion context, so a submit
// allocates no callback closure.
type tdOp struct {
	d   *TargetDevice
	req *blockio.Request
	fn  func(error) // pre-bound op.done
}

func newTDOp() *tdOp {
	op := &tdOp{}
	op.fn = op.done
	return op
}

func (op *tdOp) done(error) {
	d, req := op.d, op.req
	op.req = nil
	d.ops.Put(op)
	d.inflight--
	if req.AutoFree {
		req.Release()
	}
}

// Submit implements blockio.Device.
func (d *TargetDevice) Submit(req *blockio.Request) {
	d.inflight++
	op := d.ops.Get(newTDOp)
	op.d, op.req = d, req
	d.T.SubmitSLO(req, op.fn)
}

// InFlight implements blockio.Device.
func (d *TargetDevice) InFlight() int { return d.inflight }

// traced wraps t with the metrics span boundary, or returns t itself when
// metrics are off (rec is nil), so the default path keeps the bare Target.
func traced(rec *metrics.Recorder, t core.Target) core.Target {
	if rec == nil {
		return t
	}
	return &tracedTarget{rec: rec, t: t}
}

// tracedTarget is the per-IO span boundary: IOBegin as the request enters
// the stack, IOEnd with the final verdict.
type tracedTarget struct {
	rec *metrics.Recorder
	t   core.Target
	ops sim.Freelist[ttOp]
}

// ttOp is the traced boundary's pooled per-IO context.
type ttOp struct {
	t      *tracedTarget
	req    *blockio.Request
	onDone func(error)
	fn     func(error) // pre-bound op.done
}

func newTTOp() *ttOp {
	op := &ttOp{}
	op.fn = op.done
	return op
}

func (op *ttOp) done(err error) {
	t, req, onDone := op.t, op.req, op.onDone
	op.req, op.onDone = nil, nil
	t.ops.Put(op)
	t.rec.IOEnd(req, err, core.IsBusy(err))
	onDone(err)
}

// SubmitSLO implements core.Target.
func (t *tracedTarget) SubmitSLO(req *blockio.Request, onDone func(error)) {
	t.rec.IOBegin(req)
	op := t.ops.Get(newTTOp)
	op.t, op.req, op.onDone = t, req, onDone
	t.t.SubmitSLO(req, op.fn)
}

// Node is one replica server.
type Node struct {
	Index int
	eng   *sim.Engine

	// Stack is the node's storage stack; Target is the SLO-aware entry
	// point requests go through.
	Stack

	Store *kv.Store
	IDs   blockio.IDGen

	cfg NodeConfig

	// pools holds the per-op freelists (serve contexts, revocation
	// handles); shared across the fleet — and across legs — when the config
	// injected a bundle.
	pools *Pools

	// Crash fault state: while down, new calls are refused with
	// ErrNodeDown. liveHead/liveTail is the intrusive list of in-flight
	// serve contexts (gets and puts), so Crash can abort them in insertion
	// order without allocating or scanning the freelists.
	down               bool
	liveHead, liveTail *serveCtx

	rec *metrics.Recorder // nil when metrics are off

	served   uint64
	rejected uint64
	refused  uint64
}

// NewNode builds a node on the engine. rng seeds the device model.
func NewNode(eng *sim.Engine, cfg NodeConfig, rng *sim.RNG) *Node {
	n := &Node{Index: cfg.Index, eng: eng, cfg: cfg}
	n.pools = cfg.Pools
	if n.pools == nil {
		n.pools = &Pools{}
	}
	rec := cfg.Metrics.Node(cfg.Index) // nil when metrics are off
	n.rec = rec

	sched := SchedulerNoop
	if cfg.UseCFQ {
		sched = SchedulerCFQ
	}
	// Only a disk draws a stream from rng: forking advances it.
	var diskRNG *sim.RNG
	capacity := cfg.SSDConfig.LogicalBytes()
	if cfg.Device != DeviceSSD {
		diskRNG = rng.Fork(fmt.Sprintf("disk-%d", cfg.Index))
		capacity = cfg.DiskConfig.CapacityBytes
	}
	n.Stack = NewStack(eng, cfg, sched, diskRNG, rec, n.pools)

	region := capacity * 9 / 10
	kcfg := kv.DefaultConfig(0, region)
	kcfg.Proc = 1 // the NoSQL server process
	kcfg.Reqs = &n.pools.Reqs
	n.Store = kv.New(eng, kcfg, n.Target, &n.IDs)
	n.Store.SetRecorder(rec)
	if cfg.Mmap && n.MittCache != nil {
		n.Store.UseMmap(n.MittCache)
	}
	if cfg.Keys > 0 {
		n.Store.Preload(cfg.Keys)
	}
	return n
}

// NoiseSink returns the device noise injectors should contend on: the
// SLO-aware block layer, so MittOS observes neighbor IOs exactly as the
// in-kernel implementation would.
func (n *Node) NoiseSink() blockio.Device { return n.BlockLayer }

// Served and Rejected report request counters.
func (n *Node) Served() uint64 { return n.served }

// Rejected reports EBUSY verdicts issued by this node.
func (n *Node) Rejected() uint64 { return n.rejected }

// Refused reports calls turned away with ErrNodeDown while crashed.
func (n *Node) Refused() uint64 { return n.refused }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Crash takes the node down fail-stop: every in-flight call is answered
// with ErrNodeDown immediately (the caller's connection drops), its IO is
// revoked where still possible (queued IOs are dropped; device-resident
// IOs finish and are discarded), and new calls are refused until Revive.
// Storage state survives — a crash loses in-flight work, not data. An
// in-flight put's ack is lost the same way, but work its group-commit WAL
// append already made durable survives the restart: the classic
// "ack lost, write applied" ambiguity.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	for ctx := n.liveHead; ctx != nil; {
		next := ctx.next
		ctx.abort()
		ctx = next
	}
}

// Revive brings a crashed node back. Its stores and devices kept their
// state (fail-stop, not data loss), so it resumes serving immediately.
func (n *Node) Revive() { n.down = false }

// ReclaimStranded force-reclaims every still-linked serve context: the
// aborted gets and puts whose pending callback never fired, and the live
// ones whose IO will never end. The disk drops a cancelled get from its own
// queue without completing it, so when CFQ or the deadline scheduler had
// already dispatched that get, its device slot is never released: the node
// dispatches nothing more for the rest of the leg, and every serve queued
// behind the slot strands. Call only at experiment-leg teardown, after the
// engine has drained and before Engine.Reset discards the remaining events
// — at that point no callback can ever touch these contexts again, so
// handing them back to the (shared) pools is safe. Returns the number of
// contexts reclaimed.
func (n *Node) ReclaimStranded() int {
	count := 0
	for ctx := n.liveHead; ctx != nil; {
		next := ctx.next
		ctx.reclaim()
		ctx = next
		count++
	}
	return count
}

func (n *Node) link(ctx *serveCtx) {
	ctx.prev = n.liveTail
	ctx.next = nil
	if n.liveTail != nil {
		n.liveTail.next = ctx
	} else {
		n.liveHead = ctx
	}
	n.liveTail = ctx
}

func (n *Node) unlink(ctx *serveCtx) {
	if ctx.prev != nil {
		ctx.prev.next = ctx.next
	} else {
		n.liveHead = ctx.next
	}
	if ctx.next != nil {
		ctx.next.prev = ctx.prev
	} else {
		n.liveTail = ctx.prev
	}
	ctx.prev, ctx.next = nil, nil
}

// OutstandingIOs reports queue depth at the node's storage stack (the
// Fig 13b busyness signal).
func (n *Node) OutstandingIOs() int {
	if n.Sched != nil {
		return n.Sched.InFlight()
	}
	return n.SSD.InFlight()
}

// ServeHandle lets a client revoke a request it no longer needs (the tied
// requests cancellation path, §7.8.2). Cancelling only helps while the IO
// is still in scheduler queues; device-resident IOs are beyond revocation,
// exactly as on a real kernel.
//
// Handles are pooled per node. Two parties hold one: the serve path (until
// the get's terminal — completion, EBUSY, or revocation drop) and the
// caller, who must call Done when finished with it. The request-generation
// guard makes Cancel a no-op if the underlying request already terminated
// and was recycled for an unrelated IO.
type ServeHandle struct {
	n        *Node
	canceled bool
	req      *blockio.Request
	gen      uint32
	refs     int8
}

// Cancel revokes the request's IO if it is still cancellable.
func (h *ServeHandle) Cancel() {
	h.canceled = true
	if h.req != nil && h.req.Gen() == h.gen {
		h.req.Cancel()
	}
}

// Done releases the caller's reference; the handle must not be used after.
func (h *ServeHandle) Done() { h.deref() }

func (h *ServeHandle) deref() {
	h.refs--
	if h.refs > 0 {
		return
	}
	n := h.n
	h.req, h.canceled, h.gen = nil, false, 0
	n.pools.handles.Put(h)
}

func (n *Node) getHandle() *ServeHandle {
	h := n.pools.handles.Get(nil)
	h.n = n // pooled across the fleet: rebind the owner
	h.refs = 2
	return h
}

// KeyVersion exposes the node's current version of a key (the replication
// timestamp consistency-aware clients compare, §8.3).
func (n *Node) KeyVersion(key int64) uint64 { return n.Store.Version(key) }

// serveKind is the store call a serve context makes.
type serveKind uint8

const (
	kindGet     serveKind = iota // Store.Get
	kindPut                      // Store.PutSLO: memtable ack unless a deadline asks for the WAL
	kindDurable                  // Store.PutDurable: ack at WAL durability, even with deadline 0
)

// serveCtx is the pooled per-call serve context of every get and put: the
// optional CPU admission stage, the SLO-aware KV call, the optional CPU
// response stage, then the verdict. Its callbacks are bound once at
// allocation, so a call costs no closure allocations. Only a get has a
// request to revoke (and, through ServeGetCancelable, a handle): a put rides
// a shared group-commit WAL IO that cannot be cancelled on one member's
// behalf.
type serveCtx struct {
	n        *Node
	kind     serveKind
	key      int64
	deadline time.Duration
	onDone   func(error)
	h        *ServeHandle     // nil unless served through ServeGetCancelable
	req      *blockio.Request // a get's IO once submitted
	err      error

	// Crash bookkeeping: live-list membership plus the aborted flag. An
	// aborted call already delivered ErrNodeDown from Crash; whichever of
	// its pending callbacks fires next only reclaims state.
	aborted    bool
	prev, next *serveCtx

	workFn func()                 // pre-bound ctx.work: CPU admission stage
	kvFn   func(error)            // pre-bound ctx.kv: the store's callback
	respFn func()                 // pre-bound ctx.resp: CPU response stage
	dropFn func(*blockio.Request) // pre-bound ctx.drop: revocation terminal
}

func newServeCtx() *serveCtx {
	ctx := &serveCtx{}
	ctx.workFn = ctx.work
	ctx.kvFn = ctx.kv
	ctx.respFn = ctx.resp
	ctx.dropFn = ctx.drop
	return ctx
}

func (n *Node) free(ctx *serveCtx) {
	n.unlink(ctx)
	ctx.aborted = false
	ctx.onDone, ctx.h, ctx.req, ctx.err = nil, nil, nil, nil
	n.pools.serves.Put(ctx)
}

// abort is Crash's per-call teardown: the caller hears ErrNodeDown now (a
// put's ack is lost; whether its write survives depends on how far its WAL
// group got), and a get's IO is revoked if still queued. The context itself
// is reclaimed later, by whichever pending callback fires next
// (work/kv/resp/drop). It stays on the live list until that reclaim so
// ReclaimStranded can harvest contexts whose callback never comes.
func (ctx *serveCtx) abort() {
	if ctx.aborted {
		return
	}
	ctx.aborted = true
	onDone := ctx.onDone
	ctx.onDone = nil
	if ctx.req != nil {
		ctx.req.Cancel()
	}
	onDone(ErrNodeDown)
}

// reclaim is the terminal for an aborted call — the verdict already went out
// at crash time — and for ReclaimStranded's teardown harvest of a wedged
// one, which still owes its caller a verdict: that caller's op context (and
// the whole reply chain above it) is pooled, and without a resolution it
// would be stranded right along with the serve context. The verdict is
// ErrRevoked, delivered synchronously after the context is back in the
// pools, mirroring drop().
func (ctx *serveCtx) reclaim() {
	n, req, h, onDone := ctx.n, ctx.req, ctx.h, ctx.onDone
	n.free(ctx)
	if req != nil {
		req.Release()
	}
	if h != nil {
		h.deref()
	}
	if onDone != nil {
		onDone(ErrRevoked)
	}
}

// work is the handler proper: the one place the call's kind matters.
func (ctx *serveCtx) work() {
	if ctx.aborted {
		ctx.reclaim()
		return
	}
	if ctx.h != nil && ctx.h.canceled {
		// Revoked before the handler ran: nothing is submitted.
		ctx.deliver(blockio.ErrBusy)
		return
	}
	st := ctx.n.Store
	switch ctx.kind {
	case kindPut:
		st.PutSLO(ctx.key, ctx.deadline, ctx.kvFn)
	case kindDurable:
		st.PutDurable(ctx.key, ctx.deadline, ctx.kvFn)
	default:
		ctx.req = st.Get(ctx.key, ctx.deadline, ctx.kvFn)
		if ctx.req != nil {
			ctx.req.OnDrop = ctx.dropFn
			if ctx.h != nil {
				ctx.h.req = ctx.req
				ctx.h.gen = ctx.req.Gen()
			}
		}
	}
}

func (ctx *serveCtx) kv(err error) {
	n := ctx.n
	if ctx.aborted {
		ctx.reclaim()
		return
	}
	if core.IsBusy(err) {
		// EBUSY is the exceptionless fast path (§5): no response
		// marshalling, just the errno.
		n.rejected++
		ctx.deliver(err)
		return
	}
	if n.cfg.CPU != nil && n.cfg.CPUPerOp > 0 {
		// Response-path CPU (marshalling the reply).
		ctx.err = err
		n.cfg.CPU.Run(n.cfg.CPUPerOp, ctx.respFn)
		return
	}
	ctx.deliver(err)
}

func (ctx *serveCtx) resp() {
	if ctx.aborted {
		ctx.reclaim()
		return
	}
	ctx.deliver(ctx.err)
}

// deliver is the call's completion terminal: hand the verdict to the
// caller, then recycle the request, the context, and the serve path's
// handle ref.
func (ctx *serveCtx) deliver(err error) {
	n, onDone, req, h := ctx.n, ctx.onDone, ctx.req, ctx.h
	n.free(ctx)
	onDone(err)
	if req != nil {
		req.Release()
	}
	if h != nil {
		h.deref()
	}
}

// drop is a get's revocation terminal: the scheduler or device discarded
// the cancelled IO, so no completion will ever be delivered (span verdict
// "revoked"). The context is reclaimed and — unless a crash already aborted
// the get, which delivered ErrNodeDown and nilled onDone — the serve
// callback is resolved synchronously with ErrRevoked. The delivery is
// deliberately hop-free: a revoked get sends no reply message, so it must
// not draw network latency or post events.
func (ctx *serveCtx) drop(req *blockio.Request) {
	n, h, onDone := ctx.n, ctx.h, ctx.onDone
	n.free(ctx)
	req.Release()
	if h != nil {
		h.deref()
	}
	if onDone != nil {
		onDone(ErrRevoked)
	}
}

// ServeGet executes a get locally (network hops are the caller's job):
// optional CPU stage, then the KV read with the deadline SLO. onDone gets
// nil, EBUSY, or kv.ErrNotFound. Use ServeGetCancelable when the caller
// needs a revocation handle.
func (n *Node) ServeGet(key int64, deadline time.Duration, onDone func(error)) {
	n.serve(kindGet, key, deadline, onDone, nil)
}

// ServeGetCancelable is ServeGet returning a revocation handle (tied
// requests, §7.8.2). The caller must call Done on the handle when it no
// longer needs it.
func (n *Node) ServeGetCancelable(key int64, deadline time.Duration, onDone func(error)) *ServeHandle {
	h := n.getHandle()
	n.serve(kindGet, key, deadline, onDone, h)
	return h
}

// ServePutSLO executes a put locally with a deadline SLO: the WAL append is
// admitted through the node's Mitt* target and EBUSY surfaces before the
// memtable mutates. Deadline 0 is the vanilla write() path, acked from the
// memtable. onDone gets nil, a busy error, blockio.ErrIO, or ErrNodeDown.
func (n *Node) ServePutSLO(key int64, deadline time.Duration, onDone func(error)) {
	n.serve(kindPut, key, deadline, onDone, nil)
}

// ServePutDurable executes a put acked only at WAL durability — the quorum
// replication path. Deadline 0 means durable-but-no-SLO (never rejected);
// a positive deadline adds the WAL admission fast reject on top.
func (n *Node) ServePutDurable(key int64, deadline time.Duration, onDone func(error)) {
	n.serve(kindDurable, key, deadline, onDone, nil)
}

// serve is every entry point's one path: refuse while down, else take a
// serve context, link it live, and run the handler behind the CPU stage.
func (n *Node) serve(kind serveKind, key int64, deadline time.Duration, onDone func(error), h *ServeHandle) {
	if n.down {
		n.refused++
		if h != nil {
			h.deref() // the serve path's ref; the caller still owes Done
		}
		onDone(ErrNodeDown)
		return
	}
	n.served++
	ctx := n.pools.serves.Get(newServeCtx)
	ctx.n = n // pooled across the fleet: rebind the owner
	ctx.kind, ctx.key, ctx.deadline, ctx.onDone, ctx.h = kind, key, deadline, onDone, h
	n.link(ctx)
	if n.cfg.CPU != nil && n.cfg.CPUPerOp > 0 {
		n.cfg.CPU.Run(n.cfg.CPUPerOp, ctx.workFn)
		return
	}
	ctx.work()
}

// ObservePutQuorum feeds the put path's quorum stage (client-visible
// quorum-assembly latency) into this node's span histograms.
func (n *Node) ObservePutQuorum(d time.Duration) {
	n.rec.Observe(metrics.RNode, metrics.HPutQuorum, blockio.Write, d)
}

// Cluster is a fleet of nodes with R-way replication.
type Cluster struct {
	Eng   *sim.Engine
	Net   *netsim.Network
	Nodes []*Node
	R     int

	pools *Pools
}

// callCtx is a pooled replica call: request hop → serve → reply hop. A call
// without onDone is one-way: no reply hop and no verdict. Its callbacks are
// bound once, so a call allocates nothing in steady state.
type callCtx struct {
	c        *Cluster
	kind     serveKind
	node     int
	key      int64
	deadline time.Duration
	onDone   func(error)
	err      error

	sendFn  func()      // pre-bound (*callCtx).send
	serveFn func(error) // pre-bound (*callCtx).serve
	replyFn func()      // pre-bound (*callCtx).reply
}

func newCallCtx() *callCtx {
	ctx := &callCtx{}
	ctx.sendFn = ctx.send
	ctx.serveFn = ctx.serve
	ctx.replyFn = ctx.reply
	return ctx
}

// call sends one call to node over the network.
func (c *Cluster) call(kind serveKind, node int, key int64, deadline time.Duration, onDone func(error)) {
	ctx := c.pools.calls.Get(newCallCtx)
	ctx.c = c // pooled across fleets: rebind the owner
	ctx.kind, ctx.node, ctx.key, ctx.deadline, ctx.onDone = kind, node, key, deadline, onDone
	c.Net.Send(ctx.sendFn)
}

func (ctx *callCtx) send() {
	ctx.c.Nodes[ctx.node].serve(ctx.kind, ctx.key, ctx.deadline, ctx.serveFn, nil)
}

func (ctx *callCtx) serve(err error) {
	if ctx.onDone == nil {
		ctx.c.pools.calls.Put(ctx) // one-way: nobody waits for a reply
		return
	}
	ctx.err = err
	if errors.Is(err, ErrRevoked) {
		// Teardown harvest of a stranded serve context: the engine is about
		// to be reset, so a reply hop would never land. Resolve in place.
		// Mid-run serves never answer ErrRevoked through a call context —
		// revocation is only raised against ServeGetCancelable callers.
		ctx.reply()
		return
	}
	ctx.c.Net.Send(ctx.replyFn)
}

func (ctx *callCtx) reply() {
	c, onDone, err := ctx.c, ctx.onDone, ctx.err
	ctx.onDone, ctx.err = nil, nil
	c.pools.calls.Put(ctx)
	onDone(err)
}

// ReplicaCall sends a get to one node over the network and hands back the
// result after the response hop.
func (c *Cluster) ReplicaCall(node int, key int64, deadline time.Duration, onDone func(error)) {
	c.call(kindGet, node, key, deadline, onDone)
}

// PutCall sends a put to one node over the network and hands back the ack
// after the response hop.
func (c *Cluster) PutCall(node int, key int64, deadline time.Duration, onDone func(error)) {
	c.call(kindPut, node, key, deadline, onDone)
}

// PutOneWay fires a put at a node with neither a reply hop nor an ack — the
// fire-and-forget background-write shape (fig13's 10% write mix), routed
// through the traced/pooled serve path instead of raw closures.
func (c *Cluster) PutOneWay(node int, key int64) {
	c.call(kindPut, node, key, 0, nil)
}

// NewCluster builds nodes 0..n-1 from a template config (Index overridden
// per node).
func NewCluster(eng *sim.Engine, net *netsim.Network, n, replication int,
	tmpl NodeConfig, rng *sim.RNG) *Cluster {
	if n <= 0 || replication <= 0 || replication > n {
		panic("cluster: invalid size/replication")
	}
	c := &Cluster{Eng: eng, Net: net, R: replication, pools: tmpl.Pools}
	if c.pools == nil {
		c.pools = &Pools{}
	}
	for i := 0; i < n; i++ {
		cfg := tmpl
		cfg.Index = i
		c.Nodes = append(c.Nodes, NewNode(eng, cfg, rng.Fork(fmt.Sprintf("node-%d", i))))
	}
	return c
}

// ReplicasFor returns the R node indexes holding a key, primary first.
func (c *Cluster) ReplicasFor(key int64) []int {
	return c.ReplicasInto(key, make([]int, 0, c.R))
}

// ReplicasInto appends the R node indexes holding a key (primary first) to
// buf[:0] and returns it — the allocation-free ReplicasFor the pooled
// per-op strategy contexts use for their replica scratch.
func (c *Cluster) ReplicasInto(key int64, buf []int) []int {
	buf = buf[:0]
	h := key % int64(len(c.Nodes))
	if h < 0 {
		h += int64(len(c.Nodes))
	}
	for i := 0; i < c.R; i++ {
		buf = append(buf, int(h+int64(i))%len(c.Nodes))
	}
	return buf
}

// CPUPool models a node machine's cores: colocated server processes share
// it, and when more request-handler threads are runnable than cores exist,
// they queue — the §7.5 mechanism that makes hedging backfire on fast SSDs
// ("12 threads on a 8-thread machine cause the long tail").
type CPUPool struct {
	eng   *sim.Engine
	cores int
	busy  int
	queue []cpuTask
	head  int
	runs  sim.Freelist[cpuRun]
}

type cpuTask struct {
	d  time.Duration
	fn func()
}

// cpuRun is a pooled in-flight task: its timer callback is bound once, so
// dispatching a task allocates nothing.
type cpuRun struct {
	p      *CPUPool
	fn     func()
	stepFn func() // pre-bound r.step
}

func newCPURun() *cpuRun {
	r := &cpuRun{}
	r.stepFn = r.step
	return r
}

func (r *cpuRun) step() {
	p, fn := r.p, r.fn
	r.fn = nil
	p.runs.Put(r)
	p.busy--
	fn()
	p.kick()
}

// NewCPUPool builds a pool of the given core count.
func NewCPUPool(eng *sim.Engine, cores int) *CPUPool {
	if cores <= 0 {
		panic("cluster: CPUPool needs cores")
	}
	return &CPUPool{eng: eng, cores: cores}
}

// Busy reports the number of running tasks.
func (p *CPUPool) Busy() int { return p.busy }

// Queued reports the number of runnable-but-waiting tasks.
func (p *CPUPool) Queued() int { return len(p.queue) - p.head }

// Run executes fn after the task has held a core for d.
func (p *CPUPool) Run(d time.Duration, fn func()) {
	if p.head > 32 && p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		for i := n; i < len(p.queue); i++ {
			p.queue[i] = cpuTask{}
		}
		p.queue = p.queue[:n]
		p.head = 0
	}
	p.queue = append(p.queue, cpuTask{d: d, fn: fn})
	p.kick()
}

func (p *CPUPool) kick() {
	for p.busy < p.cores && p.head < len(p.queue) {
		t := p.queue[p.head]
		p.queue[p.head] = cpuTask{}
		p.head++
		if p.head == len(p.queue) {
			p.queue = p.queue[:0]
			p.head = 0
		}
		p.busy++
		r := p.runs.Get(newCPURun)
		r.p, r.fn = p, t.fn
		p.eng.After(t.d, r.stepFn)
	}
}
