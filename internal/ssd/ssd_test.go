package ssd

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

func newTestSSD(cfg Config) (*sim.Engine, *SSD) {
	eng := sim.NewEngine()
	return eng, New(eng, cfg)
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 8
	cfg.PagesPerBlock = 32
	cfg.OverprovisionBlocks = 2
	return cfg
}

func ioDone(lat *time.Duration) func(*blockio.Request) {
	return func(r *blockio.Request) { *lat = r.Latency() }
}

func TestUnloadedPageRead100us(t *testing.T) {
	// §4.3: "a page (16KB) read takes 100µs (chip read and channel transfer)".
	eng, s := newTestSSD(DefaultConfig())
	var lat time.Duration
	r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: 4096, SubmitTime: eng.Now()}
	r.OnComplete = ioDone(&lat)
	s.Submit(r)
	eng.Run()
	if lat != 100*time.Microsecond {
		t.Fatalf("unloaded page read = %v, want 100µs", lat)
	}
}

func TestMultiPageReadStripesAcrossChannels(t *testing.T) {
	// Consecutive pages live on different channels, so a 4-page read on a
	// 2-channel × 2-chip device should take far less than 4×100µs.
	eng, s := newTestSSD(smallConfig())
	var lat time.Duration
	size := 4 * s.Config().PageSize
	r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: size, SubmitTime: eng.Now()}
	r.OnComplete = ioDone(&lat)
	s.Submit(r)
	eng.Run()
	if lat >= 400*time.Microsecond {
		t.Fatalf("striped 4-page read = %v, want < 400µs", lat)
	}
	if lat < 100*time.Microsecond {
		t.Fatalf("striped read %v faster than a single page", lat)
	}
}

func TestReadsQueueBehindWritesOnSameChip(t *testing.T) {
	// The MittSSD motivation: a read behind a program waits ms, not µs.
	cfg := smallConfig()
	eng, s := newTestSSD(cfg)
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: cfg.PageSize, SubmitTime: eng.Now()}
	w.OnComplete = func(*blockio.Request) {}
	s.Submit(w)
	var lat time.Duration
	r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: 4096, SubmitTime: eng.Now()}
	r.OnComplete = ioDone(&lat)
	s.Submit(r)
	eng.Run()
	if lat < cfg.LowerPageProgram {
		t.Fatalf("read latency %v; should wait behind ≥%v program", lat, cfg.LowerPageProgram)
	}
}

func TestReadsOnDifferentChipsIndependent(t *testing.T) {
	// "ten IOs going to ten separate channels do not create queueing
	// delays" (§4.3).
	cfg := smallConfig()
	eng, s := newTestSSD(cfg)
	// Write to chip 0 (page 0); read from chip 1 (page 1, different channel).
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: cfg.PageSize, SubmitTime: eng.Now()}
	w.OnComplete = func(*blockio.Request) {}
	s.Submit(w)
	var lat time.Duration
	r := &blockio.Request{Op: blockio.Read, Offset: int64(cfg.PageSize), Size: 4096, SubmitTime: eng.Now()}
	r.OnComplete = ioDone(&lat)
	s.Submit(r)
	eng.Run()
	if lat > 200*time.Microsecond {
		t.Fatalf("read on independent chip delayed: %v", lat)
	}
}

func TestChannelContention(t *testing.T) {
	// Two reads on different chips behind the SAME channel share the bus:
	// second transfer waits ~60µs.
	cfg := smallConfig() // channels=2, chips/ch=2: chips 0,2 on channel 0
	eng, s := newTestSSD(cfg)
	var lat0, lat2 time.Duration
	pg := int64(cfg.PageSize)
	r0 := &blockio.Request{Op: blockio.Read, Offset: 0 * pg, Size: 4096, SubmitTime: eng.Now()}
	r0.OnComplete = ioDone(&lat0)
	r2 := &blockio.Request{Op: blockio.Read, Offset: 2 * pg, Size: 4096, SubmitTime: eng.Now()}
	r2.OnComplete = ioDone(&lat2)
	s.Submit(r0)
	s.Submit(r2)
	eng.Run()
	fast, slow := lat0, lat2
	if fast > slow {
		fast, slow = slow, fast
	}
	if fast != 100*time.Microsecond {
		t.Fatalf("first read = %v, want 100µs", fast)
	}
	if slow != 160*time.Microsecond {
		t.Fatalf("second read = %v, want 160µs (channel queueing)", slow)
	}
}

func TestProgramPattern(t *testing.T) {
	cfg := DefaultConfig()
	pat := cfg.ProgramPattern()
	if len(pat) != cfg.PagesPerBlock {
		t.Fatalf("pattern len %d", len(pat))
	}
	// §4.3: "1ms write time is needed for pages #0-6, 2ms for page #7,
	// 1ms for pages #8-9" and the middle repeats "1122".
	for i := 0; i <= 5; i++ {
		if pat[i] != cfg.LowerPageProgram {
			t.Fatalf("page %d = %v, want lower", i, pat[i])
		}
	}
	if pat[6] != cfg.UpperPageProgram {
		t.Fatalf("page 6 = %v, want upper (pattern prefix 1111112...)", pat[6])
	}
	// Suffix "...2112".
	n := len(pat)
	if pat[n-4] != cfg.UpperPageProgram || pat[n-3] != cfg.LowerPageProgram ||
		pat[n-2] != cfg.LowerPageProgram || pat[n-1] != cfg.UpperPageProgram {
		t.Fatal("pattern suffix is not 2112")
	}
	// Body must contain both speeds.
	lower, upper := 0, 0
	for _, p := range pat {
		if p == cfg.LowerPageProgram {
			lower++
		} else {
			upper++
		}
	}
	if lower == 0 || upper == 0 {
		t.Fatal("pattern lacks speed diversity")
	}
}

func TestWriteLatencyFollowsPattern(t *testing.T) {
	cfg := smallConfig()
	eng, s := newTestSSD(cfg)
	pat := cfg.ProgramPattern()
	// First write to chip 0 lands on physical page 0 of the active block.
	var lat time.Duration
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: cfg.PageSize, SubmitTime: eng.Now()}
	w.OnComplete = ioDone(&lat)
	s.Submit(w)
	eng.Run()
	want := cfg.ChannelXferTime + pat[0]
	if lat != want {
		t.Fatalf("first write latency %v, want %v", lat, want)
	}
}

func TestGCTriggersAndFreesBlocks(t *testing.T) {
	cfg := smallConfig()
	eng, s := newTestSSD(cfg)
	events := 0
	s.SetGCHook(func(ev GCEvent) {
		events++
		if ev.BusyFor < cfg.EraseTime {
			t.Fatalf("GC busy %v < erase time", ev.BusyFor)
		}
	})
	// Overwrite a small logical window repeatedly on one chip so blocks
	// fill with mostly-invalid pages.
	nChips := cfg.TotalChips()
	pg := int64(cfg.PageSize)
	writes := cfg.BlocksPerChip * cfg.PagesPerBlock * 2
	for i := 0; i < writes; i++ {
		lp := int64(i%4) * int64(nChips) // 4 chip-local pages on chip 0
		w := &blockio.Request{Op: blockio.Write, Offset: lp * pg, Size: cfg.PageSize, SubmitTime: eng.Now()}
		w.OnComplete = func(*blockio.Request) {}
		s.Submit(w)
		eng.Run()
	}
	if events == 0 {
		t.Fatal("GC never triggered under overwrite churn")
	}
	_, _, erases := s.Stats()
	if erases == 0 {
		t.Fatal("no erases recorded")
	}
	if s.EraseCount(0) == 0 {
		t.Fatal("chip 0 wear accounting empty")
	}
}

func TestGCDelaysReads(t *testing.T) {
	cfg := smallConfig()
	eng, s := newTestSSD(cfg)
	gcHappened := false
	var readDuringGC time.Duration
	s.SetGCHook(func(ev GCEvent) {
		if gcHappened {
			return
		}
		gcHappened = true
		r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: 4096, SubmitTime: eng.Now()}
		r.OnComplete = ioDone(&readDuringGC)
		s.Submit(r)
	})
	nChips := cfg.TotalChips()
	pg := int64(cfg.PageSize)
	for i := 0; i < cfg.BlocksPerChip*cfg.PagesPerBlock*2 && !gcHappened; i++ {
		lp := int64(i%4) * int64(nChips)
		w := &blockio.Request{Op: blockio.Write, Offset: lp * pg, Size: cfg.PageSize, SubmitTime: eng.Now()}
		w.OnComplete = func(*blockio.Request) {}
		s.Submit(w)
		eng.Run()
	}
	eng.Run()
	if !gcHappened {
		t.Skip("GC did not trigger with this geometry")
	}
	if readDuringGC < cfg.EraseTime {
		t.Fatalf("read during GC took %v; should be stuck behind ≥6ms erase", readDuringGC)
	}
}

func TestChipForOffsetStriping(t *testing.T) {
	cfg := smallConfig()
	_, s := newTestSSD(cfg)
	pg := int64(cfg.PageSize)
	chip0, chan0 := s.ChipForOffset(0)
	chip1, chan1 := s.ChipForOffset(pg)
	if chip0 == chip1 {
		t.Fatal("consecutive pages on same chip; striping broken")
	}
	if chan0 == chan1 {
		t.Fatal("consecutive pages on same channel; striping broken")
	}
}

func TestPageSpan(t *testing.T) {
	cfg := smallConfig()
	_, s := newTestSSD(cfg)
	ps := int64(cfg.PageSize)
	cases := []struct {
		off         int64
		size        int
		first, cnt  int64
		description string
	}{
		{0, 1, 0, 1, "1 byte"},
		{0, cfg.PageSize, 0, 1, "exactly one page"},
		{0, cfg.PageSize + 1, 0, 2, "one page + 1 byte"},
		{ps - 1, 2, 0, 2, "straddles boundary"},
		{2 * ps, 3 * cfg.PageSize, 2, 3, "aligned 3 pages"},
	}
	for _, c := range cases {
		f, n := s.PageSpan(c.off, c.size)
		if f != c.first || n != c.cnt {
			t.Fatalf("%s: PageSpan(%d,%d) = (%d,%d), want (%d,%d)",
				c.description, c.off, c.size, f, n, c.first, c.cnt)
		}
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, s := newTestSSD(smallConfig())
	r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: 4096}
	r.OnComplete = func(*blockio.Request) {}
	s.Submit(r)
	if s.InFlight() != 1 {
		t.Fatalf("InFlight = %d", s.InFlight())
	}
	eng.Run()
	if s.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", s.InFlight())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, s := newTestSSD(smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := &blockio.Request{Op: blockio.Read, Offset: s.Config().LogicalBytes(), Size: 4096}
	s.Submit(r)
}

func TestErasePanics(t *testing.T) {
	_, s := newTestSSD(smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(&blockio.Request{Op: blockio.Erase, Offset: 0, Size: 4096})
}

func TestInvalidGeometryPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), cfg)
}

func TestPropertyFTLMappingBijective(t *testing.T) {
	// After any sequence of page writes, every mapped logical page maps to
	// a distinct valid physical page and rmap inverts mapping.
	cfg := smallConfig()
	f := func(seq []uint16) bool {
		eng, s := newTestSSD(cfg)
		nChips := cfg.TotalChips()
		pg := int64(cfg.PageSize)
		userPages := (cfg.BlocksPerChip - cfg.OverprovisionBlocks) * cfg.PagesPerBlock
		for _, v := range seq {
			cl := int64(v) % int64(userPages/4) // stress a subrange
			off := (cl*int64(nChips) + 0) * pg  // chip 0 always
			w := &blockio.Request{Op: blockio.Write, Offset: off, Size: cfg.PageSize}
			w.OnComplete = func(*blockio.Request) {}
			s.Submit(w)
			eng.Run()
		}
		c := s.chips[0]
		ppb := cfg.PagesPerBlock
		seen := map[int32]bool{}
		for cl := 0; cl < userPages; cl++ {
			enc := s.lookup(c, cl)
			if enc == 0 {
				continue // unmapped
			}
			phys := enc - 1
			if phys < 0 || int(phys) >= cfg.BlocksPerChip*ppb {
				return false // not a physical page
			}
			if seen[phys] {
				return false // two logical pages share a physical page
			}
			seen[phys] = true
			if c.owner(int(phys), ppb) != int32(cl)+1 {
				return false // mapped but not valid, or rmap does not invert mapping
			}
		}
		// Every valid physical page is some logical page's mapping, and each
		// block's valid count is its valid pages.
		valid := 0
		for b, blk := range c.blocks {
			n := 0
			for i := 0; i < ppb; i++ {
				if c.owner(b*ppb+i, ppb) != 0 {
					n++
				}
			}
			if n != blk.valid {
				return false
			}
			valid += n
		}
		return valid == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLogicalBytesExcludesOverprovisioning(t *testing.T) {
	cfg := smallConfig()
	want := int64(cfg.TotalChips()) * int64(cfg.BlocksPerChip-cfg.OverprovisionBlocks) *
		int64(cfg.PagesPerBlock) * int64(cfg.PageSize)
	if cfg.LogicalBytes() != want {
		t.Fatalf("LogicalBytes = %d, want %d", cfg.LogicalBytes(), want)
	}
}

func TestWearLevelingTriggersAndMovesPages(t *testing.T) {
	cfg := smallConfig()
	cfg.WearLevelEvery = 3
	eng, s := newTestSSD(cfg)
	wlEvents := 0
	s.SetGCHook(func(ev GCEvent) {
		if ev.WearLevel {
			wlEvents++
			if ev.BusyFor < cfg.EraseTime {
				t.Fatalf("wear-level episode busy %v < erase time", ev.BusyFor)
			}
		}
	})
	nChips := cfg.TotalChips()
	pg := int64(cfg.PageSize)
	// Heavy overwrite churn on chip 0 → many GCs → wear leveling.
	for i := 0; i < cfg.BlocksPerChip*cfg.PagesPerBlock*4; i++ {
		lp := int64(i%4) * int64(nChips)
		w := &blockio.Request{Op: blockio.Write, Offset: lp * pg, Size: cfg.PageSize}
		w.OnComplete = func(*blockio.Request) {}
		s.Submit(w)
		eng.Run()
	}
	if wlEvents == 0 {
		t.Skip("churn insufficient to trigger wear leveling with this geometry")
	}
	// Data integrity: the hot pages remain readable after migrations.
	for i := 0; i < 4; i++ {
		done := false
		r := &blockio.Request{Op: blockio.Read, Offset: int64(i) * int64(nChips) * pg, Size: 4096}
		r.OnComplete = func(*blockio.Request) { done = true }
		s.Submit(r)
		eng.Run()
		if !done {
			t.Fatalf("read of hot page %d lost after wear leveling", i)
		}
	}
}

func TestWearLevelingDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.WearLevelEvery = 0
	eng, s := newTestSSD(cfg)
	nChips := cfg.TotalChips()
	pg := int64(cfg.PageSize)
	for i := 0; i < cfg.BlocksPerChip*cfg.PagesPerBlock*2; i++ {
		lp := int64(i%4) * int64(nChips)
		w := &blockio.Request{Op: blockio.Write, Offset: lp * pg, Size: cfg.PageSize}
		w.OnComplete = func(*blockio.Request) {}
		s.Submit(w)
		eng.Run()
	}
	if s.WearLevelMoves() != 0 {
		t.Fatalf("wear leveling ran while disabled: %d moves", s.WearLevelMoves())
	}
}

// lookup returns chip c's logical page cl's mapping entry: chip-local
// physical page + 1, or 0 unmapped. A nil leaf reads as all-unmapped.
func (s *SSD) lookup(c *chip, cl int) int32 {
	lp := cl*len(s.chips) + c.id
	if leaf := s.mapping[lp>>leafShift]; leaf != nil {
		return leaf[lp&(leafPages-1)]
	}
	return 0
}

// owner returns physical page phys's rmap entry: its chip-local logical
// page + 1 while valid, else 0. A nil rmap reads as all-free.
func (c *chip) owner(phys, ppb int) int32 {
	if rmap := c.blocks[phys/ppb].rmap; rmap != nil {
		return rmap[phys%ppb]
	}
	return 0
}

// ftlState renders a device's FTL and wear state for comparison, through
// lookup and owner, so a reset device's cleared leaves and rmaps render as
// a fresh device's nil ones. Every rmap entry is included: reset must leave
// none of them set.
func ftlState(s *SSD) string {
	cfg := s.cfg
	ppb := cfg.PagesPerBlock
	userPages := (cfg.BlocksPerChip - cfg.OverprovisionBlocks) * ppb
	out := fmt.Sprintf("reads=%d writes=%d erases=%d wl=%d inflight=%d\n",
		s.reads, s.writes, s.erases, s.wlMoves, s.inflight)
	for _, c := range s.chips {
		mapping := make([]int32, userPages)
		for cl := range mapping {
			mapping[cl] = s.lookup(c, cl)
		}
		rmap := make([]int32, len(c.blocks)*ppb)
		for phys := range rmap {
			rmap[phys] = c.owner(phys, ppb)
		}
		var valid, front, erased []int
		for _, b := range c.blocks {
			valid, front, erased = append(valid, b.valid), append(front, b.front), append(erased, b.erases)
		}
		out += fmt.Sprintf("chip %d: active=%d free=%v since=%d valid=%v front=%v erased=%v map=%v rmap=%v queue=%d\n",
			c.id, c.activeBlock, c.freeBlocks, c.sinceWL, valid, front, erased, mapping, rmap, c.srv.occupancy())
	}
	for _, ch := range s.channels {
		out += fmt.Sprintf("channel %d: queue=%d\n", ch.id, ch.srv.occupancy())
	}
	return out
}

// ioScript drives a small device through overwrite churn on a few hot pages
// of every chip, enough for GC and wear leveling, with interleaved multi-page
// reads, and returns every request's completion time in submission order.
func ioScript(eng *sim.Engine, s *SSD, n int) []sim.Time {
	cfg := s.Config()
	pg := int64(cfg.PageSize)
	var done []sim.Time
	for i := 0; i < n; i++ {
		r := &blockio.Request{Op: blockio.Write, Offset: int64(i%(4*cfg.TotalChips())) * pg, Size: cfg.PageSize}
		if i%7 == 0 {
			r.Op, r.Size = blockio.Read, 3*cfg.PageSize
		}
		r.SubmitTime = eng.Now()
		idx := len(done)
		done = append(done, -1)
		r.OnComplete = func(r *blockio.Request) { done[idx] = eng.Now() }
		s.Submit(r)
		if i%5 == 4 {
			eng.Run()
		}
	}
	eng.Run()
	return done
}

// TestPoolResetMatchesNew: a device taken through GC and wear leveling and
// cycled through a Pool is in exactly New's factory state, and replays an IO
// script with the same completion times as a fresh device.
func TestPoolResetMatchesNew(t *testing.T) {
	cfg := smallConfig()
	cfg.WearLevelEvery = 3
	script := 2 * cfg.BlocksPerChip * cfg.PagesPerBlock * cfg.TotalChips()

	var pool Pool
	eng := sim.NewEngine()
	used := pool.Get(eng, cfg)
	gcs, wls := 0, 0
	used.SetGCHook(func(ev GCEvent) {
		if ev.WearLevel {
			wls++
		} else {
			gcs++
		}
	})
	used.SetDegradation(2)
	used.SetErrorInjection(0.5, sim.NewRNG(3, "pool-err"))
	ioScript(eng, used, script)
	if gcs == 0 || wls == 0 {
		t.Fatalf("script ran %d GC and %d wear-leveling episodes; want both", gcs, wls)
	}
	pool.Put(used)

	freshEng, fresh := newTestSSD(cfg)
	reusedEng := sim.NewEngine()
	reused := pool.Get(reusedEng, cfg)
	if reused != used {
		t.Fatal("pool built a new device instead of reusing the parked one")
	}
	if got, want := ftlState(reused), ftlState(fresh); got != want {
		t.Fatalf("reset device differs from New:\n got %s\nwant %s", got, want)
	}
	if reused.Degradation() != 1 || reused.errRate != 0 || reused.gcHook != nil {
		t.Fatal("reset kept degradation, error injection or the GC hook")
	}
	want := ioScript(freshEng, fresh, script)
	got := ioScript(reusedEng, reused, script)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reset device completes the IO script at different times than a fresh one")
	}
	if ftlState(reused) != ftlState(fresh) {
		t.Fatal("reset and fresh devices diverge after the same IO script")
	}
}

// occupancy counts a server's queued-or-running tasks.
func (sv *server) occupancy() int {
	n := len(sv.q) - sv.head
	if sv.running {
		n++
	}
	return n
}
