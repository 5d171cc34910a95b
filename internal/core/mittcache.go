package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/oscache"
	"mittos/internal/sim"
)

// MittCache is MittOS integrated with OS cache management (§4.4).
//
// For read()-path IOs it walks the page tables: fully-resident reads are
// served at memory speed; misses propagate the deadline to the IO layer
// below, with one extra check — if the deadline is smaller than the
// smallest possible device IO latency, the user expected an in-memory read
// and EBUSY is returned immediately. For mmap-path accesses, AddrCheck
// models the paper's addrcheck() system call (an 82ns page-table walk).
//
// Two §4.4 caveats are implemented: EBUSY signals memory-space contention
// (pages that were resident and got swapped out), never first-time cold
// accesses; and after EBUSY the data continues to be swapped in, in the
// background, so the cache stays warm for applications that expect memory
// residency.
//
// The residency walk is exact, so the miss-cost estimate (minIO) is the
// only prediction the layer can get wrong: SetMiscalibration distorts it to
// minIO×scale + bias. Accuracy stays zero — page-table lookups have "no
// accuracy issues" (§4.4).
type MittCache struct {
	gate
	cache *oscache.Cache
	lower Target
	// minIO is the smallest possible IO latency of the layer below; a
	// deadline under it means "I expect a cache hit".
	minIO time.Duration

	hits   plainOps // hit and absorbed-write completions
	misses sim.Freelist[cacheMissOp]
}

// cacheMissOp is the pooled lower-layer callback for the miss path: warm
// the cache on success, then hand the verdict up.
type cacheMissOp struct {
	m      *MittCache
	req    *blockio.Request
	onDone func(error)
	fn     func(error) // pre-bound op.done
}

func newCacheMissOp() *cacheMissOp { op := &cacheMissOp{}; op.fn = op.done; return op }

func (op *cacheMissOp) done(err error) {
	m, req, onDone := op.m, op.req, op.onDone
	op.req, op.onDone = nil, nil
	m.misses.Put(op)
	if err == nil {
		m.cache.Warm(req.Offset, req.Size)
	}
	onDone(err)
}

// NewMittCache builds the layer over a page cache and the (Mitt-wrapped)
// IO path below it. minIO is the smallest possible IO latency of the
// backing device (e.g. ~100µs for flash, ~300µs sequential disk).
func NewMittCache(eng *sim.Engine, cache *oscache.Cache, lower Target, minIO time.Duration, opt Options) *MittCache {
	return &MittCache{gate: newGate(eng, metrics.RMittCache, opt), cache: cache, lower: lower, minIO: minIO}
}

// Resident reports whether [off, off+size) is fully cached.
func (m *MittCache) Resident(off int64, size int) bool { return m.cache.Resident(off, size) }

// AddrCheck models the addrcheck(&buf, size, deadline) system call: a
// page-table walk before dereferencing an mmap-ed pointer. It returns nil
// when the application may proceed (data resident, or a miss it is willing
// to wait for) and EBUSY when the data was swapped out under memory
// contention and the deadline expects residency. The walk costs
// cache.AddrCheckCost() (82ns) — negligible, so it is not modeled as an
// event, matching the paper's measurement.
func (m *MittCache) AddrCheck(off int64, size int, deadline time.Duration) error {
	if m.cache.Resident(off, size) {
		return nil
	}
	missCost := m.adjust(m.minIO)
	if deadline > blockio.NoDeadline && deadline < missCost && m.cache.WasEverResident(off, size) {
		m.rejected++
		// addrcheck has no request descriptor; only the counter moves.
		m.rec.Incr(m.res, metrics.CRejected)
		// Keep swapping the data in behind the EBUSY (§4.4).
		m.cache.Prefetch(off, size, blockio.ClassBestEffort, 4, -1)
		return &BusyError{PredictedWait: missCost}
	}
	return nil
}

// SubmitSLO implements Target for the read()-with-deadline path.
func (m *MittCache) SubmitSLO(req *blockio.Request, onDone func(error)) {
	if req.SubmitTime == 0 {
		req.SubmitTime = m.eng.Now()
	}
	if req.Op == blockio.Write {
		// Writes are absorbed by the cache; no deadline semantics (§7.8.6).
		m.hits.wrap(req, onDone)
		m.cache.Submit(req)
		return
	}

	if m.cache.Resident(req.Offset, req.Size) {
		m.accepted++
		m.rec.Incr(m.res, metrics.CAccepted)
		// Hit path: the residency walk just done lets the cache skip its
		// duplicate page-table walk.
		m.hits.wrap(req, onDone)
		m.cache.SubmitResident(req)
		return
	}

	// Miss. The in-memory-expectation check (§4.4): a deadline below any
	// possible IO latency plus evidence of prior residency = memory-space
	// contention → EBUSY, with background swap-in.
	hasSLO := req.Deadline > blockio.NoDeadline
	missCost := m.adjust(m.minIO)
	if hasSLO && req.Deadline < missCost && !m.shadow &&
		m.cache.WasEverResident(req.Offset, req.Size) {
		m.cache.Prefetch(req.Offset, req.Size, req.Class, req.Priority, req.Proc)
		m.reject(req, missCost, onDone)
		return
	}

	// Propagate the deadline to the IO layer below (§4.4), reading whole
	// pages and populating the cache on success.
	m.accepted++
	m.rec.Incr(m.res, metrics.CAccepted)
	op := m.misses.Get(newCacheMissOp)
	op.m, op.req, op.onDone = m, req, onDone
	m.lower.SubmitSLO(req, op.fn)
}
