package oscache

import (
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// fakeDevice completes every IO after a fixed delay, failing it with err
// when set, and records them.
type fakeDevice struct {
	eng      *sim.Engine
	delay    time.Duration
	err      error
	inflight int
	seen     []*blockio.Request
}

func (f *fakeDevice) Submit(req *blockio.Request) {
	f.inflight++
	f.seen = append(f.seen, req)
	req.DispatchTime = f.eng.Now()
	f.eng.Schedule(f.delay, func() {
		req.Err = f.err
		req.CompleteTime = f.eng.Now()
		f.inflight--
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	})
}

func (f *fakeDevice) InFlight() int { return f.inflight }

func newTestCache(capPages int) (*sim.Engine, *Cache, *fakeDevice) {
	eng := sim.NewEngine()
	dev := &fakeDevice{eng: eng, delay: 8 * time.Millisecond}
	cfg := DefaultConfig()
	cfg.CapacityPages = capPages
	return eng, New(eng, cfg, dev), dev
}

func readReq(eng *sim.Engine, off int64, size int, lat *time.Duration) *blockio.Request {
	r := &blockio.Request{Op: blockio.Read, Offset: off, Size: size, SubmitTime: eng.Now()}
	r.OnComplete = func(r *blockio.Request) { *lat = r.Latency() }
	return r
}

func TestHitIsFast(t *testing.T) {
	eng, c, dev := newTestCache(100)
	c.Warm(0, 4096)
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	eng.Run()
	if lat != c.Config().HitLatency {
		t.Fatalf("hit latency %v, want %v", lat, c.Config().HitLatency)
	}
	if len(dev.seen) != 0 {
		t.Fatal("hit should not touch the backing device")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestMissReadsThrough(t *testing.T) {
	eng, c, dev := newTestCache(100)
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	eng.Run()
	if lat < dev.delay {
		t.Fatalf("miss latency %v < device delay %v", lat, dev.delay)
	}
	if !c.Resident(0, 4096) {
		t.Fatal("page not resident after read-through")
	}
	// Second read is a hit.
	var lat2 time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat2))
	eng.Run()
	if lat2 != c.Config().HitLatency {
		t.Fatalf("second read latency %v, want hit", lat2)
	}
}

func TestMissReadsWholePages(t *testing.T) {
	eng, c, dev := newTestCache(100)
	var lat time.Duration
	c.Submit(readReq(eng, 100, 8, &lat)) // 8 bytes in the middle of page 0
	eng.Run()
	if len(dev.seen) != 1 {
		t.Fatalf("backing IOs = %d", len(dev.seen))
	}
	if dev.seen[0].Offset != 0 || dev.seen[0].Size != c.Config().PageSize {
		t.Fatalf("backing IO %v; want whole page", dev.seen[0])
	}
}

func TestLRUEviction(t *testing.T) {
	eng, c, _ := newTestCache(2)
	ps := int64(c.Config().PageSize)
	c.Warm(0*ps, 4096)
	c.Warm(1*ps, 4096)
	// Touch page 0 so page 1 is LRU.
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	eng.Run()
	c.Warm(2*ps, 4096) // evicts page 1
	if !c.Resident(0, 4096) {
		t.Fatal("recently used page evicted")
	}
	if c.Resident(ps, 4096) {
		t.Fatal("LRU page not evicted")
	}
	if !c.Resident(2*ps, 4096) {
		t.Fatal("new page not resident")
	}
}

func TestWriteAbsorbedAndFlushedOnEviction(t *testing.T) {
	eng, c, dev := newTestCache(1)
	var lat time.Duration
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: 4096, SubmitTime: eng.Now()}
	w.OnComplete = func(r *blockio.Request) { lat = r.Latency() }
	c.Submit(w)
	eng.Run()
	if lat != c.Config().HitLatency {
		t.Fatalf("write latency %v, want absorbed", lat)
	}
	if len(dev.seen) != 0 {
		t.Fatal("dirty page flushed too early")
	}
	// Evict it: the dirty page must be written back.
	c.Warm(int64(c.Config().PageSize), 4096)
	eng.Run()
	if len(dev.seen) != 1 || dev.seen[0].Op != blockio.Write {
		t.Fatalf("expected 1 write-back, got %v", dev.seen)
	}
}

func TestEvictRange(t *testing.T) {
	_, c, _ := newTestCache(100)
	ps := int64(c.Config().PageSize)
	c.Warm(0, int(4*ps))
	c.EvictRange(ps, int(2*ps))
	if c.Resident(ps, 4096) || c.Resident(2*ps, 4096) {
		t.Fatal("fadvised pages still resident")
	}
	if !c.Resident(0, 4096) || !c.Resident(3*ps, 4096) {
		t.Fatal("untargeted pages evicted")
	}
}

func TestEvictFraction(t *testing.T) {
	_, c, _ := newTestCache(10000)
	ps := int64(c.Config().PageSize)
	n := 1000
	c.Warm(0, int(int64(n)*ps))
	c.EvictFraction(0.2, sim.NewRNG(1, "evict"))
	got := c.ResidentPages()
	if got < 700 || got > 900 {
		t.Fatalf("after 20%% eviction: %d of %d pages resident", got, n)
	}
}

func TestWasEverResidentDistinguishesColdMisses(t *testing.T) {
	_, c, _ := newTestCache(100)
	ps := int64(c.Config().PageSize)
	if c.WasEverResident(0, 4096) {
		t.Fatal("cold page reported as previously resident")
	}
	c.Warm(0, 4096)
	c.EvictRange(0, 4096)
	if c.Resident(0, 4096) {
		t.Fatal("evicted page still resident")
	}
	if !c.WasEverResident(0, 4096) {
		t.Fatal("re-evicted page not flagged as memory contention")
	}
	_ = ps
}

func TestBalloonShrinksResidentSet(t *testing.T) {
	_, c, _ := newTestCache(100)
	ps := int64(c.Config().PageSize)
	c.Warm(0, int(100*ps))
	if c.ResidentPages() != 100 {
		t.Fatalf("warm pages = %d", c.ResidentPages())
	}
	c.Balloon(60)
	if c.ResidentPages() != 40 {
		t.Fatalf("after balloon: %d pages, want 40", c.ResidentPages())
	}
	c.Balloon(-60)
	c.Warm(0, int(100*ps))
	if c.ResidentPages() != 100 {
		t.Fatalf("after deflate: %d pages, want 100", c.ResidentPages())
	}
}

func TestPrefetchPopulatesInBackground(t *testing.T) {
	eng, c, dev := newTestCache(100)
	c.Prefetch(0, 4096, blockio.ClassBestEffort, 4, 1)
	if c.Resident(0, 4096) {
		t.Fatal("prefetch resident before device completed")
	}
	eng.Run()
	if !c.Resident(0, 4096) {
		t.Fatal("prefetch did not populate")
	}
	if len(dev.seen) != 1 {
		t.Fatalf("backing IOs = %d", len(dev.seen))
	}
	// Prefetching a resident range is a no-op.
	c.Prefetch(0, 4096, blockio.ClassBestEffort, 4, 1)
	eng.Run()
	if len(dev.seen) != 1 {
		t.Fatal("redundant prefetch hit the device")
	}
}

func TestFailedPrefetchInsertsNothing(t *testing.T) {
	eng, c, dev := newTestCache(100)
	dev.err = blockio.ErrIO
	c.Prefetch(0, 4096, blockio.ClassBestEffort, 4, 1)
	eng.Run()
	if c.Resident(0, 4096) || c.WasEverResident(0, 4096) {
		t.Fatal("failed prefetch populated the cache")
	}
}

func TestDeadlinePropagatedToBackingIO(t *testing.T) {
	eng, c, dev := newTestCache(100)
	var lat time.Duration
	r := readReq(eng, 0, 4096, &lat)
	r.Deadline = 20 * time.Millisecond
	c.Submit(r)
	eng.Run()
	if dev.seen[0].Deadline != 20*time.Millisecond {
		t.Fatalf("backing deadline = %v; §4.4 requires propagation", dev.seen[0].Deadline)
	}
}

func TestAddrCheckCost(t *testing.T) {
	_, c, _ := newTestCache(10)
	if c.AddrCheckCost() != 82*time.Nanosecond {
		t.Fatalf("addrcheck cost %v", c.AddrCheckCost())
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, c, _ := newTestCache(10)
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d", c.InFlight())
	}
	eng.Run()
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", c.InFlight())
	}
}

func TestEmptyIOPanics(t *testing.T) {
	_, c, _ := newTestCache(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Submit(&blockio.Request{Op: blockio.Read, Offset: 0, Size: 0})
}

func TestPropertyResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		eng, c, _ := newTestCache(8)
		ps := int64(c.Config().PageSize)
		for _, op := range ops {
			pageID := int64(op % 64)
			switch op % 3 {
			case 0:
				c.Warm(pageID*ps, 4096)
			case 1:
				w := &blockio.Request{Op: blockio.Write, Offset: pageID * ps, Size: 4096}
				w.OnComplete = func(*blockio.Request) {}
				c.Submit(w)
			case 2:
				c.EvictRange(pageID*ps, 4096)
			}
			if c.ResidentPages() > 8 {
				return false
			}
		}
		eng.Run()
		return c.ResidentPages() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResidentImpliesWasEverResident(t *testing.T) {
	f := func(pagesRaw []uint8) bool {
		_, c, _ := newTestCache(16)
		ps := int64(c.Config().PageSize)
		for _, p := range pagesRaw {
			c.Warm(int64(p)*ps, 4096)
		}
		for _, p := range pagesRaw {
			off := int64(p) * ps
			if c.Resident(off, 4096) && !c.WasEverResident(off, 4096) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
