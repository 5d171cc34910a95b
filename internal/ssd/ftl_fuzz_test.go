package ssd

import (
	"slices"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// fuzzConfig is FuzzFTL's geometry: two chips on two channels, small
// blocks and one overprovisioned block, so a few hundred page writes per
// chip reach GC, and wear leveling follows every second erase. The device
// has 1,056 logical pages, so its mapping spans two full leaves and part of
// a third.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels, cfg.ChipsPerChannel = 2, 1
	cfg.BlocksPerChip, cfg.PagesPerBlock = 12, 48
	cfg.OverprovisionBlocks = 1
	cfg.PageSize = 4096
	cfg.WearLevelEvery = 2
	return cfg
}

// fuzzPage maps an argument byte to a logical page. Most bytes pick one of
// 48 hot pages at the front of the device, whose overwrites drive GC; the
// rest pick one of 64 pages spread over the top of the logical space, on
// both chips and the last two mapping leaves.
func fuzzPage(arg byte, logical int64) int64 {
	if arg < 192 {
		return int64(arg % 48)
	}
	return logical - 1 - int64(arg-192)*7
}

var fuzzSteps = []time.Duration{10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 3 * time.Millisecond, 20 * time.Millisecond}

// runFTLProgram drives an SSD, cycled through a Pool, and the flat-array
// oracle with the same byte program, comparing them after every step, and
// returns the GC and wear-leveling episodes the SSD ran.
//
// Each step is an op byte and an argument byte. op%8 is: 0 write one page,
// 1 write 2–16 pages (count from op/8), 2 read one page, 3 read 2–16 pages,
// 4 and 7 submit 1–32 one-page writes cycling over the hot pages, 5 run the
// engines for a while, and 6 drain them or, for the top eighth of
// arguments, park the SSD in the pool, reset both engines, and take the
// SSD back beside a fresh oracle. Programs stop after 512 steps.
func runFTLProgram(t *testing.T, data []byte) (gcs, wls int) {
	t.Helper()
	cfg := fuzzConfig()
	logical := cfg.LogicalBytes() / int64(cfg.PageSize)
	var pool Pool
	eng, flatEng := sim.NewEngine(), sim.NewEngine()
	var dev *SSD
	var flat *flatSSD
	var devGC, flatGC []GCEvent
	var devDone, flatDone []sim.Time
	start := func() {
		dev, flat = pool.Get(eng, cfg), newFlatSSD(flatEng, cfg)
		dev.SetGCHook(func(ev GCEvent) {
			devGC = append(devGC, ev)
			if ev.WearLevel {
				wls++
			} else {
				gcs++
			}
		})
		flat.gcHook = func(ev GCEvent) { flatGC = append(flatGC, ev) }
	}
	start()
	submit := func(op blockio.Op, first, count int64) {
		if first+count > logical {
			first = logical - count
		}
		idx := len(devDone)
		devDone, flatDone = append(devDone, -1), append(flatDone, -1)
		mk := func(done []sim.Time, e *sim.Engine) *blockio.Request {
			return &blockio.Request{Op: op, Offset: first * int64(cfg.PageSize),
				Size: int(count) * cfg.PageSize, SubmitTime: e.Now(),
				OnComplete: func(*blockio.Request) { done[idx] = e.Now() }}
		}
		dev.Submit(mk(devDone, eng))
		flat.Submit(mk(flatDone, flatEng))
	}
	hot := int64(0)
	for i := 0; i+1 < len(data) && i < 1024; i += 2 {
		op, arg := data[i], data[i+1]
		count := 2 + int64(op/8)%15
		switch op % 8 {
		case 0:
			submit(blockio.Write, fuzzPage(arg, logical), 1)
		case 1:
			submit(blockio.Write, fuzzPage(arg, logical), count)
		case 2:
			submit(blockio.Read, fuzzPage(arg, logical), 1)
		case 3:
			submit(blockio.Read, fuzzPage(arg, logical), count)
		case 4, 7:
			for n := 1 + int(arg)%32; n > 0; n-- {
				submit(blockio.Write, hot, 1)
				hot = (hot + 1) % 48
			}
		case 5:
			d := fuzzSteps[int(arg)%len(fuzzSteps)]
			eng.RunFor(d)
			flatEng.RunFor(d)
		case 6:
			if arg < 224 {
				eng.Run()
				flatEng.Run()
				break
			}
			parked := dev
			pool.Put(dev)
			eng.Reset()
			flatEng.Reset()
			start()
			if dev != parked {
				t.Fatal("pool built a new device instead of reusing the parked one")
			}
		}
		if eng.Now() != flatEng.Now() {
			t.Fatalf("step %d: clocks diverge: ssd %v, oracle %v", i/2, eng.Now(), flatEng.Now())
		}
		compareFTL(t, i/2, dev, flat)
		if !slices.Equal(devGC, flatGC) {
			t.Fatalf("step %d: GC events diverge:\n ssd    %v\n oracle %v", i/2, devGC, flatGC)
		}
		if !slices.Equal(devDone, flatDone) {
			t.Fatalf("step %d: completion times diverge:\n ssd    %v\n oracle %v", i/2, devDone, flatDone)
		}
	}
	return gcs, wls
}

// compareFTL fails unless s and the oracle agree on every FTL fact: each
// logical page's physical page, each physical page's validity and owner,
// each block's valid count, write front and erase count, the active block,
// the free list, the wear-leveling countdown, the device counters and the
// depth of every die queue.
func compareFTL(t *testing.T, step int, s *SSD, o *flatSSD) {
	t.Helper()
	if s.reads != o.reads || s.writes != o.writes || s.erases != o.erases || s.wlMoves != o.wlMoves {
		t.Fatalf("step %d: counters ssd %d/%d/%d/%d, oracle %d/%d/%d/%d", step,
			s.reads, s.writes, s.erases, s.wlMoves, o.reads, o.writes, o.erases, o.wlMoves)
	}
	ppb := s.cfg.PagesPerBlock
	for i, c := range s.chips {
		oc := o.chips[i]
		if c.activeBlock != oc.activeBlock || !slices.Equal(c.freeBlocks, oc.freeBlocks) {
			t.Fatalf("step %d chip %d: active %d free %v, oracle active %d free %v",
				step, i, c.activeBlock, c.freeBlocks, oc.activeBlock, oc.freeBlocks)
		}
		if c.sinceWL != o.erasesSinceWL[i] {
			t.Fatalf("step %d chip %d: %d erases since wear leveling, oracle %d", step, i, c.sinceWL, o.erasesSinceWL[i])
		}
		if c.srv.occupancy() != oc.srv.occupancy() {
			t.Fatalf("step %d chip %d: queue %d, oracle %d", step, i, c.srv.occupancy(), oc.srv.occupancy())
		}
		for cl, want := range oc.mapping {
			if got := s.lookup(c, cl); got != want {
				t.Fatalf("step %d chip %d: logical page %d maps to %d, oracle %d", step, i, cl, got-1, want-1)
			}
		}
		for b := range c.blocks {
			blk := &c.blocks[b]
			if blk.valid != oc.validCount[b] || blk.front != oc.writeFront[b] || blk.erases != oc.eraseCount[b] {
				t.Fatalf("step %d chip %d block %d: valid/front/erases %d/%d/%d, oracle %d/%d/%d", step, i, b,
					blk.valid, blk.front, blk.erases, oc.validCount[b], oc.writeFront[b], oc.eraseCount[b])
			}
		}
		for phys, st := range oc.pageState {
			owner := c.owner(phys, ppb)
			if (owner != 0) != (st == 1) || (st == 1 && owner-1 != oc.rmap[phys]) {
				t.Fatalf("step %d chip %d: physical page %d has owner entry %d, oracle state %d owner %d",
					step, i, phys, owner, st, oc.rmap[phys])
			}
		}
	}
	for i, ch := range s.channels {
		if ch.srv.occupancy() != o.channels[i].srv.occupancy() {
			t.Fatalf("step %d channel %d: queue %d, oracle %d", step, i, ch.srv.occupancy(), o.channels[i].srv.occupancy())
		}
	}
}

// ftlChurn is a byte program of hot-page write bursts with reads, multi-page
// writes over both leaves, and partial engine steps, long enough to take
// both chips through GC and wear leveling.
func ftlChurn() []byte {
	var p []byte
	for r := 0; r < 24; r++ {
		p = append(p, 4, 31, 7, 31, 2, byte(r), 5, byte(r%5))
		p = append(p, 1+8*byte(r%15), byte(192+r*2), 3+8*byte(r%4), byte(r*3))
		if r%3 == 2 {
			p = append(p, 6, 0)
		}
	}
	return append(p, 6, 0)
}

// TestFTLChurnReachesGCAndWearLeveling keeps FuzzFTL's main seed honest:
// it must reach both kinds of episode while the SSD and the oracle agree.
func TestFTLChurnReachesGCAndWearLeveling(t *testing.T) {
	if gcs, wls := runFTLProgram(t, ftlChurn()); gcs == 0 || wls == 0 {
		t.Fatalf("churn ran %d GC and %d wear-leveling episodes; want both", gcs, wls)
	}
}

// FuzzFTL drives the SSD and the flat-array FTL it replaced (flatftl_test.go)
// with the same byte program of writes, reads, engine steps and Pool cycles,
// and demands identical FTL state, GC events and completion times after
// every step.
func FuzzFTL(f *testing.F) {
	f.Add(ftlChurn())
	churn := ftlChurn()
	f.Add(append(append(churn[:len(churn)/2:len(churn)/2], 5, 2, 6, 255), churn...))
	f.Add([]byte{0, 0, 0, 200, 9, 250, 2, 0, 11, 5, 5, 2, 6, 0})
	f.Add([]byte{4, 20, 5, 1, 6, 230, 7, 20, 3, 3, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runFTLProgram(t, data)
	})
}
