// Package oscache models the OS buffer/page cache that sits between
// applications and block devices: page-granular residency, LRU eviction,
// write-back dirty pages, mmap-style address checks, and the memory-space
// contention (ballooning, fadvise eviction) that MittCache detects (§4.4).
package oscache

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// Config holds cache parameters.
type Config struct {
	// PageSize is the cache page granularity (4KB, like the kernel).
	PageSize int
	// CapacityPages is the resident-set limit.
	CapacityPages int
	// HitLatency is the cost of serving a fully-resident read (page-table
	// walk + copy) — §6 measures ~0.02ms for cached 4KB reads.
	HitLatency time.Duration
	// AddrCheckLatency is the cost of the addrcheck() system call: "only
	// adds a negligible overhead (82ns per call)" (§4.4).
	AddrCheckLatency time.Duration
	// Slab, when non-nil, is a shared page freelist: an experiment arena
	// passes one slab across legs (reclaiming each finished cache's pages
	// and page table with Reclaim) so the next leg's caches reuse the same
	// page structs and tables. Nil gets a private slab.
	Slab *PageSlab
	// Reqs, when non-nil, is the request pool background sub-IOs draw from,
	// shared for the same reason. Nil gets a private pool.
	Reqs *blockio.Pool
}

// DefaultConfig returns a cache shaped like the paper's: 4KB pages and a
// ~20µs hit path.
func DefaultConfig() Config {
	return Config{
		PageSize:         4096,
		CapacityPages:    1 << 20, // 4GB, fits the paper's 3.5GB dataset
		HitLatency:       20 * time.Microsecond,
		AddrCheckLatency: 82 * time.Nanosecond,
	}
}

// page is one page-table entry, doubly linked into either the LRU list (while
// resident) or the ghost list (once evicted) directly, with no container/list
// element allocation. A page and its page-table entry live as long as the
// cache; Reclaim returns the structs to the slab.
type page struct {
	id         int64
	dirty      bool
	resident   bool // on the LRU list; false = on the ghost list
	prev, next *page
}

// pageList is an intrusive doubly linked list of pages; head is the most
// recently pushed.
type pageList struct {
	head, tail *page
	n          int
}

// Cache is the page cache. Reads that miss go to the backing device; writes
// are absorbed (write-back) and flushed on eviction.
type Cache struct {
	eng     *sim.Engine
	cfg     Config
	backing blockio.Device

	// pages is the page table: every page that has ever been resident. An
	// evicted page keeps its entry and moves to the ghost list, because
	// MittCache tells first-time accesses (cold misses) from re-evicted
	// pages and signals EBUSY only for the latter ("should return EBUSY to
	// signal memory space contention ... but not for first-time accesses",
	// §4.4). Eviction and re-insertion therefore write no map entry. nil
	// until the first insert (see table), so a cache that is never filled
	// holds no table.
	pages map[int64]*page
	// lru holds the resident pages: head = most recently used, tail =
	// eviction victim. ghosts holds the evicted ones, in no meaningful order.
	lru, ghosts pageList
	slab        *PageSlab // page freelist, possibly shared across legs

	// capacity is the resident-set limit: cfg.CapacityPages less the pages
	// a co-tenant's balloon holds (ballooned, negative once deflated past
	// zero), and never below one page.
	capacity, ballooned int

	ids      blockio.IDGen
	inflight int

	// Per-IO pools: background sub-requests and the hit/miss
	// completion contexts that replace per-IO closures.
	reqs    *blockio.Pool
	ops     sim.Freelist[cacheOp]
	victims []*page // EvictFraction scratch

	hits, misses, evictions uint64

	// degrade scales the hit path (memory-bus contention from a noisy
	// co-tenant); 1.0 = healthy.
	degrade float64

	rec *metrics.Recorder
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (c *Cache) SetRecorder(rec *metrics.Recorder) { c.rec = rec }

// New builds a cache over the backing device.
func New(eng *sim.Engine, cfg Config, backing blockio.Device) *Cache {
	if cfg.PageSize <= 0 || cfg.CapacityPages <= 0 {
		panic("oscache: invalid config")
	}
	slab := cfg.Slab
	if slab == nil {
		slab = &PageSlab{}
	}
	reqs := cfg.Reqs
	if reqs == nil {
		reqs = &blockio.Pool{}
	}
	return &Cache{
		eng:      eng,
		cfg:      cfg,
		backing:  backing,
		slab:     slab,
		reqs:     reqs,
		capacity: cfg.CapacityPages,
		degrade:  1.0,
	}
}

// Reclaim hands every page, resident or evicted, back to the (shared) slab
// and parks the emptied page table there for the next cache on the slab.
// Call only at experiment-leg teardown: the cache is unusable afterwards,
// it exists so an arena can recycle a finished leg's page structs and
// table into the next leg's cache.
func (c *Cache) Reclaim() {
	for _, l := range [...]*pageList{&c.lru, &c.ghosts} {
		for pg := l.head; pg != nil; {
			next := pg.next
			c.slab.put(pg)
			pg = next
		}
		*l = pageList{}
	}
	if c.pages != nil {
		clear(c.pages) // keeps the table's storage
		c.slab.tables = append(c.slab.tables, c.pages)
		c.pages = nil
	}
}

// SetDegradation scales the hit-serving latency by factor (>1 slower);
// 1 restores. Misses are priced by the backing device, which has its own
// degradation hook.
func (c *Cache) SetDegradation(factor float64) {
	if factor <= 0 {
		panic("oscache: degradation factor must be positive")
	}
	c.degrade = factor
}

// Degradation returns the current factor.
func (c *Cache) Degradation() float64 { return c.degrade }

// hitLatency is the possibly-degraded cost of serving from memory.
func (c *Cache) hitLatency() time.Duration {
	if c.degrade != 1.0 {
		return time.Duration(float64(c.cfg.HitLatency) * c.degrade)
	}
	return c.cfg.HitLatency
}

// Config returns the cache configuration. CapacityPages is the configured
// limit, whatever Balloon currently holds.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns hit/miss/eviction counters.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// ResidentPages returns the current resident-set size in pages.
func (c *Cache) ResidentPages() int { return c.lru.n }

// InFlight implements blockio.Device.
func (c *Cache) InFlight() int { return c.inflight }

func (c *Cache) span(off int64, size int) (first, last int64) {
	ps := int64(c.cfg.PageSize)
	return off / ps, (off + int64(size) - 1) / ps
}

// Resident reports whether every page of [off, off+size) is resident. This
// is the page-table walk behind both the read() fast path and addrcheck().
func (c *Cache) Resident(off int64, size int) bool {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if pg := c.pages[p]; pg == nil || !pg.resident {
			return false
		}
	}
	return true
}

// WasEverResident reports whether every page of the range has been resident
// at some point — i.e. a miss now means memory-space contention, not a cold
// first access.
func (c *Cache) WasEverResident(off int64, size int) bool {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if c.pages[p] == nil {
			return false
		}
	}
	return true
}

// AddrCheckCost returns the modeled cost of one addrcheck() call.
func (c *Cache) AddrCheckCost() time.Duration { return c.cfg.AddrCheckLatency }

// cacheOp is the pooled per-IO context for the cache's deferred work: the
// hit-latency completion timer and the insert-then-complete callback of a
// read-through or prefetch sub-IO. Callback fields are bound once at
// allocation and reused across recycles.
type cacheOp struct {
	c           *Cache
	req         *blockio.Request         // the client request to complete (nil for prefetch)
	first, last int64                    // pages to insert on sub-IO completion
	fireFn      func()                   // pre-bound op.fire (hit/write timer)
	fillFn      func(r *blockio.Request) // pre-bound op.fill (sub-IO completion)
}

func newCacheOp() *cacheOp { op := &cacheOp{}; op.fireFn, op.fillFn = op.fire, op.fill; return op }

func (c *Cache) getOp(req *blockio.Request) *cacheOp {
	op := c.ops.Get(newCacheOp)
	op.c, op.req = c, req
	return op
}

func (c *Cache) freeOp(op *cacheOp) {
	op.req = nil
	c.ops.Put(op)
}

// fire completes a hit/write after the hit latency elapsed.
func (op *cacheOp) fire() {
	c, req := op.c, op.req
	c.freeOp(op)
	c.complete(req)
}

// fill runs when a read-through or prefetch sub-IO finishes: populate the
// fetched pages and, for a read-through, complete the waiting client. A
// failed sub-IO fetched nothing, so it inserts no pages and hands its error
// to the client.
func (op *cacheOp) fill(sub *blockio.Request) {
	c, req := op.c, op.req
	first, last := op.first, op.last
	c.freeOp(op)
	if sub.Err == nil {
		for p := first; p <= last; p++ {
			c.insert(p, false)
		}
	} else if req != nil {
		req.Err = sub.Err
	}
	if req != nil {
		c.complete(req)
	}
}

// Submit implements blockio.Device: reads serve from the cache when fully
// resident, otherwise read through to the backing device and populate.
// Writes are absorbed write-back.
func (c *Cache) Submit(req *blockio.Request) {
	if req.Size <= 0 {
		panic(fmt.Sprintf("oscache: empty IO: %v", req))
	}
	c.inflight++
	req.DispatchTime = c.eng.Now()
	c.rec.DevEnter(metrics.RCache, req)
	switch req.Op {
	case blockio.Write:
		first, last := c.span(req.Offset, req.Size)
		for p := first; p <= last; p++ {
			c.insert(p, true)
		}
		c.eng.After(c.hitLatency(), c.getOp(req).fireFn)
	case blockio.Read:
		if c.Resident(req.Offset, req.Size) {
			c.serveHit(req)
			return
		}
		c.misses++
		c.rec.Incr(metrics.RCache, metrics.CCacheMiss)
		c.readThrough(req)
	default:
		panic(fmt.Sprintf("oscache: unsupported op %v", req.Op))
	}
}

// serveHit completes a fully-resident read at memory speed.
func (c *Cache) serveHit(req *blockio.Request) {
	c.hits++
	c.rec.Incr(metrics.RCache, metrics.CCacheHit)
	c.touchRange(req.Offset, req.Size)
	c.eng.After(c.hitLatency(), c.getOp(req).fireFn)
}

// SubmitResident serves a read the caller has already verified fully
// resident (MittCache's read()-fast-path admission does the page-table walk
// itself, §4.4). Observable behavior is identical to Submit on a resident
// read; only the duplicate residency walk is skipped.
func (c *Cache) SubmitResident(req *blockio.Request) {
	if req.Size <= 0 || req.Op != blockio.Read {
		panic(fmt.Sprintf("oscache: SubmitResident on non-read: %v", req))
	}
	c.inflight++
	req.DispatchTime = c.eng.Now()
	c.rec.DevEnter(metrics.RCache, req)
	c.serveHit(req)
}

// Prefetch populates the pages of [off,size) in the background with no
// waiting client — the "MittCache should continue swapping in the data in
// the background, even after EBUSY is already returned" rule (§4.4).
func (c *Cache) Prefetch(off int64, size int, class blockio.Class, prio int, proc int) {
	if c.Resident(off, size) {
		return
	}
	c.rec.Incr(metrics.RCache, metrics.CPrefetch)
	op := c.getOp(nil)
	op.first, op.last = c.span(off, size)
	sub := c.reqs.Get()
	sub.ID = c.ids.Next()
	sub.Op = blockio.Read
	sub.Offset, sub.Size = off, size
	sub.Proc, sub.Class, sub.Priority = proc, class, prio
	sub.SubmitTime = c.eng.Now()
	sub.OnComplete = op.fillFn
	sub.AutoFree = true
	c.backing.Submit(sub)
}

// readThrough fetches the full request range from the backing device
// (kernel readahead reads whole pages), inserts the pages, then completes
// the client request.
func (c *Cache) readThrough(req *blockio.Request) {
	ps := int64(c.cfg.PageSize)
	first, last := c.span(req.Offset, req.Size)
	op := c.getOp(req)
	op.first, op.last = first, last
	sub := c.reqs.Get()
	sub.ID = c.ids.Next()
	sub.Op = blockio.Read
	sub.Offset, sub.Size = first*ps, int((last-first+1)*ps)
	sub.Proc, sub.Class, sub.Priority = req.Proc, req.Class, req.Priority
	sub.Deadline = req.Deadline
	sub.SubmitTime = c.eng.Now()
	sub.OnComplete = op.fillFn
	sub.AutoFree = true
	c.backing.Submit(sub)
}

func (c *Cache) complete(req *blockio.Request) {
	req.CompleteTime = c.eng.Now()
	c.inflight--
	c.rec.DevDone(metrics.RCache, req)
	if req.OnComplete != nil {
		req.OnComplete(req)
	}
}

// Page-table and LRU plumbing.

// pageSlabSize batches page allocations: experiment-scale workloads touch
// hundreds of thousands of distinct pages, and one heap object per page
// dominated the allocation profile. A page lives as long as its cache and
// Reclaim recycles it, so slabs only grow the footprint to the largest page
// table of any one leg.
const pageSlabSize = 1024

// PageSlab is a page freelist with slab-batched growth. The zero value is
// ready to use; a shared slab (Config.Slab) lets consecutive experiment legs
// reuse one peak page table's worth of page structs instead of growing a
// fresh freelist per cache. It also holds the empty page tables Reclaim
// parks, which the next caches on the slab take instead of growing their
// own.
type PageSlab struct {
	free   *page
	tables []map[int64]*page
}

// DropTables releases the parked page tables, keeping the page structs. An
// arena calls it when its experiment ends: a table sized for one
// experiment's legs should not stay live through the next experiment.
func (s *PageSlab) DropTables() {
	clear(s.tables)
	s.tables = s.tables[:0]
}

func (s *PageSlab) get() *page {
	if s.free == nil {
		slab := make([]page, pageSlabSize)
		for i := range slab {
			slab[i].next = s.free
			s.free = &slab[i]
		}
	}
	pg := s.free
	s.free = pg.next
	pg.next = nil
	return pg
}

func (s *PageSlab) put(pg *page) {
	*pg = page{next: s.free}
	s.free = pg
}

func (l *pageList) pushFront(pg *page) {
	pg.prev = nil
	pg.next = l.head
	if l.head != nil {
		l.head.prev = pg
	}
	l.head = pg
	if l.tail == nil {
		l.tail = pg
	}
	l.n++
}

func (l *pageList) remove(pg *page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
	l.n--
}

func (c *Cache) moveToFront(pg *page) {
	if c.lru.head == pg {
		return
	}
	c.lru.remove(pg)
	c.lru.pushFront(pg)
}

// table returns the page table, making it on first use: the most recently
// parked table on the slab if there is one, else a new one with room for n
// pages, capped at the resident-set limit.
func (c *Cache) table(n int64) map[int64]*page {
	if c.pages == nil {
		if k := len(c.slab.tables); k > 0 {
			c.pages = c.slab.tables[k-1]
			c.slab.tables[k-1] = nil
			c.slab.tables = c.slab.tables[:k-1]
		} else {
			c.pages = make(map[int64]*page, min(n, int64(c.capacity)))
		}
	}
	return c.pages
}

// insert makes a page resident (touching it if already resident), evicting
// the LRU page when at capacity. Only a page never resident before adds a
// page-table entry; an evicted one comes back from the ghost list.
func (c *Cache) insert(id int64, dirty bool) {
	pg := c.pages[id]
	if pg != nil && pg.resident {
		pg.dirty = pg.dirty || dirty
		c.moveToFront(pg)
		return
	}
	for c.lru.n >= c.capacity {
		c.evictLRU()
	}
	if pg == nil {
		pg = c.slab.get()
		pg.id = id
		c.table(0)[id] = pg
	} else {
		c.ghosts.remove(pg)
	}
	pg.dirty, pg.resident = dirty, true
	c.lru.pushFront(pg)
}

func (c *Cache) touchRange(off int64, size int) {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if pg := c.pages[p]; pg != nil && pg.resident {
			c.moveToFront(pg)
		}
	}
}

func (c *Cache) evictLRU() {
	if c.lru.tail == nil {
		return
	}
	c.evict(c.lru.tail)
}

// evict moves a resident page to the ghost list, writing it back first if
// dirty. Its page-table entry stays.
func (c *Cache) evict(pg *page) {
	c.lru.remove(pg)
	pg.resident = false
	c.ghosts.pushFront(pg)
	c.evictions++
	c.rec.Incr(metrics.RCache, metrics.CEviction)
	if pg.dirty {
		// Write-back on eviction, fire-and-forget at idle priority.
		wb := c.reqs.Get()
		wb.ID = c.ids.Next()
		wb.Op = blockio.Write
		wb.Offset, wb.Size = pg.id*int64(c.cfg.PageSize), c.cfg.PageSize
		wb.Class, wb.Priority = blockio.ClassIdle, 7
		wb.SubmitTime = c.eng.Now()
		wb.AutoFree = true
		c.backing.Submit(wb)
	}
}

// EvictRange drops the pages covering [off, off+size), the moral equivalent
// of posix_fadvise(DONTNEED) — §7.1 uses it to "throw away about 20% of the
// cached data".
func (c *Cache) EvictRange(off int64, size int) {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if pg := c.pages[p]; pg != nil && pg.resident {
			c.evict(pg)
		}
	}
}

// EvictFraction drops approximately frac of the resident set, chosen
// pseudo-randomly — the manual swapping methodology of §7.4.
func (c *Cache) EvictFraction(frac float64, rng *sim.RNG) {
	if frac <= 0 {
		return
	}
	c.victims = c.victims[:0]
	// Iterate the LRU list for deterministic order, then sample.
	for pg := c.lru.head; pg != nil; pg = pg.next {
		if rng.Bool(frac) {
			c.victims = append(c.victims, pg)
		}
	}
	for i, pg := range c.victims {
		c.evict(pg)
		c.victims[i] = nil
	}
	c.victims = c.victims[:0]
}

// Balloon inflates another tenant's VM balloon by nPages (§6's "VM
// ballooning effect"), shrinking the cache capacity and evicting immediately
// if needed; negative nPages deflates it. The balloon's running total is kept
// apart from the configured capacity, so deflating by what was inflated
// restores the capacity exactly, however far the inflation clamped it.
func (c *Cache) Balloon(nPages int) {
	c.ballooned += nPages
	c.capacity = max(c.cfg.CapacityPages-c.ballooned, 1)
	for c.lru.n > c.capacity {
		c.evictLRU()
	}
}

// Warm loads [off, off+size) into the cache instantly (experiment setup:
// "we pre-read 3.5GB file", §6) without consuming virtual time. A cache
// with no page table yet gets one sized for the range, so a large warm-up
// fills its table without regrowing it.
func (c *Cache) Warm(off int64, size int) {
	first, last := c.span(off, size)
	if first > last {
		return
	}
	c.table(last - first + 1)
	for p := first; p <= last; p++ {
		c.insert(p, false)
	}
}
