package oscache

import (
	"slices"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// fuzzIODelay is how long the scripted backing device takes per IO.
const fuzzIODelay = 8 * time.Millisecond

// devIO is one IO as the backing device received it.
type devIO struct {
	op     blockio.Op
	off    int64
	size   int
	failed bool
}

// scriptDevice completes every IO after fuzzIODelay, failing those submitted
// while fail is set, and records them. Unlike fakeDevice it records values,
// not request pointers, because the cache's sub-IOs are pooled and recycled
// once complete. onDone runs before the IO's own completion callback, so a
// reference model can apply the same effect at the same point of the event
// order.
type scriptDevice struct {
	eng      *sim.Engine
	fail     bool
	inflight int
	seen     []devIO
	onDone   func(devIO)
}

func (d *scriptDevice) Submit(req *blockio.Request) {
	io := devIO{req.Op, req.Offset, req.Size, d.fail}
	d.seen = append(d.seen, io)
	d.inflight++
	req.DispatchTime = d.eng.Now()
	d.eng.After(fuzzIODelay, func() {
		d.inflight--
		if io.failed {
			req.Err = blockio.ErrIO
		}
		d.onDone(io)
		req.CompleteTime = d.eng.Now()
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	})
}

func (d *scriptDevice) InFlight() int { return d.inflight }

// refFill is a read the model expects the device to complete: the pages it
// inserts, and which client read (-1 for a prefetch) waits on it.
type refFill struct {
	first, last int64
	failed      bool
	client      int
}

// refCache is the page cache's reference model: a slice for the LRU order
// and plain maps for dirtiness and history, with every operation written the
// obvious way.
type refCache struct {
	ps                      int64
	capacity, ballooned     int
	lru                     []int64 // resident pages, most recently used first
	dirty                   map[int64]bool
	ever                    map[int64]bool
	hits, misses, evictions uint64
	fail                    bool
	ios                     []devIO   // what the backing device should have received
	pending                 []refFill // submitted reads, in completion order
	clientErr               []bool    // per client request: should it fail?
}

func (m *refCache) limit() int { return max(m.capacity-m.ballooned, 1) }

func (m *refCache) span(off int64, size int) (int64, int64) {
	return off / m.ps, (off + int64(size) - 1) / m.ps
}

func (m *refCache) resident(p int64) bool { return slices.Contains(m.lru, p) }

func (m *refCache) allResident(off int64, size int) bool {
	first, last := m.span(off, size)
	for p := first; p <= last; p++ {
		if !m.resident(p) {
			return false
		}
	}
	return true
}

func (m *refCache) touch(p int64) {
	i := slices.Index(m.lru, p)
	m.lru = slices.Insert(slices.Delete(m.lru, i, i+1), 0, p)
}

func (m *refCache) evict(p int64) {
	i := slices.Index(m.lru, p)
	m.lru = slices.Delete(m.lru, i, i+1)
	m.evictions++
	if m.dirty[p] {
		m.ios = append(m.ios, devIO{blockio.Write, p * m.ps, int(m.ps), m.fail})
	}
	delete(m.dirty, p)
}

func (m *refCache) insert(p int64, dirty bool) {
	if m.resident(p) {
		m.dirty[p] = m.dirty[p] || dirty
		m.touch(p)
		return
	}
	for len(m.lru) >= m.limit() {
		m.evict(m.lru[len(m.lru)-1])
	}
	m.lru = slices.Insert(m.lru, 0, p)
	m.dirty[p] = dirty
	m.ever[p] = true
}

func (m *refCache) insertRange(off int64, size int, dirty bool) {
	first, last := m.span(off, size)
	for p := first; p <= last; p++ {
		m.insert(p, dirty)
	}
}

// read models Submit of a client read: a hit touches every page, a miss
// reads the whole pages through.
func (m *refCache) read(off int64, size int, client int) {
	first, last := m.span(off, size)
	if m.allResident(off, size) {
		m.hits++
		for p := first; p <= last; p++ {
			m.touch(p)
		}
		return
	}
	m.misses++
	m.ios = append(m.ios, devIO{blockio.Read, first * m.ps, int((last - first + 1) * m.ps), m.fail})
	m.pending = append(m.pending, refFill{first, last, m.fail, client})
}

func (m *refCache) prefetch(off int64, size int) {
	if m.allResident(off, size) {
		return
	}
	first, last := m.span(off, size)
	m.ios = append(m.ios, devIO{blockio.Read, off, size, m.fail})
	m.pending = append(m.pending, refFill{first, last, m.fail, -1})
}

func (m *refCache) evictRange(off int64, size int) {
	first, last := m.span(off, size)
	for p := first; p <= last; p++ {
		if m.resident(p) {
			m.evict(p)
		}
	}
}

func (m *refCache) evictFraction(frac float64, rng *sim.RNG) {
	if frac <= 0 {
		return
	}
	var victims []int64
	for _, p := range m.lru {
		if rng.Bool(frac) {
			victims = append(victims, p)
		}
	}
	for _, p := range victims {
		m.evict(p)
	}
}

func (m *refCache) balloon(n int) {
	m.ballooned += n
	for len(m.lru) > m.limit() {
		m.evict(m.lru[len(m.lru)-1])
	}
}

// done applies a completed device read: the pages it fetched become resident
// unless it failed, and a failed read-through fails its client.
func (m *refCache) done(t *testing.T, io devIO) {
	if io.op != blockio.Read {
		return
	}
	if len(m.pending) == 0 {
		t.Fatalf("device completed read %+v the model never issued", io)
	}
	f := m.pending[0]
	m.pending = m.pending[1:]
	if first, last := m.span(io.off, io.size); first != f.first || last != f.last || io.failed != f.failed {
		t.Fatalf("device completed %+v, model expected pages [%d, %d] failed=%v", io, f.first, f.last, f.failed)
	}
	if f.failed {
		if f.client >= 0 {
			m.clientErr[f.client] = true
		}
		return
	}
	for p := f.first; p <= f.last; p++ {
		m.insert(p, false)
	}
}

// FuzzCachePageTable drives a small cache with a byte program of client
// reads and writes, Warm, EvictRange, EvictFraction, Balloon, Prefetch,
// device-failure toggles and engine steps, over contiguous or strided page
// ids, and after every step compares it with refCache:
//
//   - the resident set and the ever-resident set, through Resident and
//     WasEverResident on every page the program has named;
//   - the LRU order and each resident page's dirty bit;
//   - the hit, miss and eviction counters;
//   - every IO the backing device received (read-throughs, prefetches and
//     dirty write-backs), in order.
//
// It also checks the page table's own shape: every entry sits on the list its
// resident flag names, and the two lists together hold the whole table.
// After a final drain every client request has completed exactly once, with
// an error exactly when its read-through failed, and Reclaim hands every page
// of both lists back to the slab.
func FuzzCachePageTable(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 2, 1, 0, 0, 3, 4, 0, 2, 0, 0, 7, 9, 0, 0, 0, 0})
	f.Add([]byte{8 | 2, 1, 1, 2, 1, 3, 0, 2, 5, 0, 5, 12, 0, 0, 5, 4, 0, 0, 1, 0})
	f.Add([]byte{4, 6, 2, 2, 8, 0, 0, 0, 5, 0, 7, 15, 0, 8, 0, 0, 0, 5, 1, 7, 15, 0})
	f.Add([]byte{1, 2, 0, 9, 5, 30, 0, 5, 0, 0, 2, 0, 2, 4, 4, 0, 1, 7, 0, 2})
	f.Add([]byte{8 | 7, 1, 3, 5, 1, 4, 5, 1, 5, 5, 4, 2, 0, 4, 4, 0, 7, 12, 0, 0, 1, 0})

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 1+3*128 {
			prog = prog[:1+3*128]
		}
		head, prog := prog[0], prog[1:]
		// Strided ids sit far apart in the page table; contiguous ones make
		// multi-page ranges overlap.
		stride := int64(1)
		if head&8 != 0 {
			stride = 1<<20 + 7
		}

		eng := sim.NewEngine()
		dev := &scriptDevice{eng: eng}
		cfg := DefaultConfig()
		cfg.CapacityPages = 1 + int(head%8)
		c := New(eng, cfg, dev)
		ps := int64(cfg.PageSize)
		m := &refCache{ps: ps, capacity: cfg.CapacityPages,
			dirty: map[int64]bool{}, ever: map[int64]bool{}}
		dev.onDone = func(io devIO) { m.done(t, io) }
		cacheRNG, modelRNG := sim.NewRNG(5, "fuzz-evict"), sim.NewRNG(5, "fuzz-evict")

		var named []int64 // every page id the program has referred to
		checkedIOs := 0
		var completions []int
		var clientErr []bool
		client := func(op blockio.Op, off int64, size int) *blockio.Request {
			i := len(completions)
			completions = append(completions, 0)
			clientErr = append(clientErr, false)
			m.clientErr = append(m.clientErr, false)
			r := &blockio.Request{Op: op, Offset: off, Size: size, SubmitTime: eng.Now()}
			r.OnComplete = func(r *blockio.Request) {
				completions[i]++
				clientErr[i] = r.Err != nil
			}
			return r
		}

		check := func(step int) {
			for _, p := range named {
				if got, want := c.Resident(p*ps, 1), m.resident(p); got != want {
					t.Fatalf("step %d: page %d resident=%v, model %v", step, p, got, want)
				}
				if got, want := c.WasEverResident(p*ps, 1), m.ever[p]; got != want {
					t.Fatalf("step %d: page %d ever-resident=%v, model %v", step, p, got, want)
				}
			}
			var lru []int64
			for pg := c.lru.head; pg != nil; pg = pg.next {
				if !pg.resident || c.pages[pg.id] != pg {
					t.Fatalf("step %d: LRU page %d not the resident page-table entry", step, pg.id)
				}
				if pg.dirty != m.dirty[pg.id] {
					t.Fatalf("step %d: page %d dirty=%v, model %v", step, pg.id, pg.dirty, m.dirty[pg.id])
				}
				lru = append(lru, pg.id)
			}
			if !slices.Equal(lru, m.lru) {
				t.Fatalf("step %d: LRU order %v, model %v", step, lru, m.lru)
			}
			ghosts := 0
			for pg := c.ghosts.head; pg != nil; pg = pg.next {
				if pg.resident || c.pages[pg.id] != pg || !m.ever[pg.id] {
					t.Fatalf("step %d: ghost page %d not an evicted page-table entry", step, pg.id)
				}
				ghosts++
			}
			if c.lru.n != len(lru) || c.ghosts.n != ghosts || len(c.pages) != len(lru)+ghosts ||
				len(c.pages) != len(m.ever) || c.ResidentPages() != len(m.lru) {
				t.Fatalf("step %d: lru %d/%d ghosts %d/%d table %d, model resident %d ever %d",
					step, c.lru.n, len(lru), c.ghosts.n, ghosts, len(c.pages), len(m.lru), len(m.ever))
			}
			if h, mi, e := c.Stats(); h != m.hits || mi != m.misses || e != m.evictions {
				t.Fatalf("step %d: stats hits %d misses %d evictions %d, model %d %d %d",
					step, h, mi, e, m.hits, m.misses, m.evictions)
			}
			// The IOs compared at earlier steps cannot change.
			if len(dev.seen) != len(m.ios) || !slices.Equal(dev.seen[checkedIOs:], m.ios[checkedIOs:]) {
				t.Fatalf("step %d: device received %+v, model %+v", step, dev.seen, m.ios)
			}
			checkedIOs = len(m.ios)
		}

		for i := 0; i+2 < len(prog); i += 3 {
			op, a, b := prog[i]%9, prog[i+1], prog[i+2]
			// A range of 1-3 pages from page id (a%8)*stride, with its ends
			// moved off the page boundaries by b.
			first := int64(a%8) * stride
			n := int64(b%3) + 1
			for p := first; p < first+n; p++ {
				if !slices.Contains(named, p) {
					named = append(named, p)
				}
			}
			d := int64(b>>2&3) * 1000
			off := first*ps + d
			size := int((n-1)*ps + int64(b>>4&3)*300 + 1)
			switch op {
			case 0:
				m.read(off, size, len(completions))
				c.Submit(client(blockio.Read, off, size))
			case 1:
				m.insertRange(off, size, true)
				c.Submit(client(blockio.Write, off, size))
			case 2:
				m.insertRange(off, size, false)
				c.Warm(off, size)
			case 3:
				m.evictRange(off, size)
				c.EvictRange(off, size)
			case 4:
				frac := float64(a%5) / 4
				m.evictFraction(frac, modelRNG)
				c.EvictFraction(frac, cacheRNG)
			case 5:
				m.balloon(int(a%17) - 8)
				c.Balloon(int(a%17) - 8)
			case 6:
				m.prefetch(off, size)
				c.Prefetch(off, size, blockio.ClassBestEffort, 4, 1)
			case 7:
				eng.RunFor(time.Duration(a%16) * time.Millisecond)
			case 8:
				m.fail = !m.fail
				dev.fail = m.fail
			}
			check(i / 3)
		}

		eng.Run()
		check(-1)
		if len(m.pending) != 0 || c.InFlight() != 0 {
			t.Fatalf("after drain: model has %d reads pending, cache %d IOs in flight", len(m.pending), c.InFlight())
		}
		for i, n := range completions {
			if n != 1 {
				t.Fatalf("client request %d completed %d times", i, n)
			}
			if clientErr[i] != m.clientErr[i] {
				t.Fatalf("client request %d failed=%v, model %v", i, clientErr[i], m.clientErr[i])
			}
		}

		free := func() int {
			k := 0
			for pg := c.slab.free; pg != nil; pg = pg.next {
				k++
			}
			return k
		}
		before, table := free(), len(c.pages)
		c.Reclaim()
		if got := free() - before; got != table {
			t.Fatalf("Reclaim returned %d pages to the slab; the page table held %d", got, table)
		}
	})
}
