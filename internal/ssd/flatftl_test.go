package ssd

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// flatSSD is the device as it stood while New allocated every chip's FTL
// whole: flat per-chip mapping, rmap and pageState arrays, with pageState
// telling free (0), valid (1) and invalid (2) pages apart. Its FTL
// (allocPage, maybeGC, maybeWearLevel, migrate) is retained verbatim as
// FuzzFTL's differential-testing oracle, with the device plumbing it needs
// to time IOs on the package's server type. It leaves out what the FTL
// never reads: pooling, degradation, error injection, the metrics recorder
// and the submit hook.
type flatSSD struct {
	eng *sim.Engine
	cfg Config

	chips    []*flatChip
	channels []*channel
	pattern  []time.Duration

	reads   uint64
	writes  uint64
	erases  uint64
	wlMoves uint64

	erasesSinceWL []int

	gcHook func(GCEvent)
}

type flatChip struct {
	id  int
	srv server

	mapping     []int32 // chip-local logical page → physical page (block*ppb+idx) + 1, 0 unmapped
	rmap        []int32 // physical page → chip-local logical page; meaningful only while the page is valid
	pageState   []int8  // physical page: 0 free, 1 valid, 2 invalid
	validCount  []int   // per block
	writeFront  []int   // per block: next unwritten page index
	freeBlocks  []int
	activeBlock int
	eraseCount  []int
}

func newFlatSSD(eng *sim.Engine, cfg Config) *flatSSD {
	s := &flatSSD{eng: eng, cfg: cfg, pattern: cfg.ProgramPattern(),
		erasesSinceWL: make([]int, cfg.TotalChips())}
	for i := 0; i < cfg.Channels; i++ {
		s.channels = append(s.channels, &channel{id: i})
	}
	pagesPerChip := cfg.BlocksPerChip * cfg.PagesPerBlock
	userPages := (cfg.BlocksPerChip - cfg.OverprovisionBlocks) * cfg.PagesPerBlock
	for i := 0; i < cfg.TotalChips(); i++ {
		c := &flatChip{
			id:         i,
			mapping:    make([]int32, userPages),
			rmap:       make([]int32, pagesPerChip),
			pageState:  make([]int8, pagesPerChip),
			validCount: make([]int, cfg.BlocksPerChip),
			writeFront: make([]int, cfg.BlocksPerChip),
			eraseCount: make([]int, cfg.BlocksPerChip),
		}
		for b := 1; b < cfg.BlocksPerChip; b++ {
			c.freeBlocks = append(c.freeBlocks, b)
		}
		s.chips = append(s.chips, c)
	}
	return s
}

// Submit stripes a request into per-page sub-IOs as SSD.Submit does.
func (s *flatSSD) Submit(req *blockio.Request) {
	req.DispatchTime = s.eng.Now()
	ps := int64(s.cfg.PageSize)
	first, last := req.Offset/ps, (req.Offset+int64(req.Size)-1)/ps
	grp := &flatGroup{s: s, req: req, remaining: int(last - first + 1)}
	for lp := first; lp <= last; lp++ {
		chipID := int(lp % int64(s.cfg.TotalChips()))
		op := &flatPageOp{s: s, grp: grp, lp: lp,
			c: s.chips[chipID], ch: s.channels[chipID%s.cfg.Channels]}
		if req.Op == blockio.Read {
			s.reads++
			op.stage = opReadChip
			op.c.srv.run(op)
		} else {
			s.writes++
			op.stage = opWriteXfer
			op.ch.srv.run(op)
			op.c.srv.run(op)
		}
	}
}

type flatGroup struct {
	s         *flatSSD
	req       *blockio.Request
	remaining int
}

func (g *flatGroup) pageDone() {
	g.remaining--
	if g.remaining != 0 {
		return
	}
	g.req.CompleteTime = g.s.eng.Now()
	if g.req.OnComplete != nil {
		g.req.OnComplete(g.req)
	}
}

type flatPageOp struct {
	s   *flatSSD
	grp *flatGroup
	lp  int64
	c   *flatChip
	ch  *channel

	stage       uint8
	transferred bool
	chipHeld    bool
}

func (op *flatPageOp) serve(sv *server) {
	switch op.stage {
	case opReadChip:
		op.s.eng.After(op.s.cfg.ChipReadTime, op.step)
	case opReadXfer:
		op.s.eng.After(op.s.cfg.ChannelXferTime, op.step)
	default: // opWriteXfer: channel transfer in, or the die slot opening up
		if sv == &op.ch.srv {
			op.s.eng.After(op.s.cfg.ChannelXferTime, op.step)
		} else {
			op.chipHeld = true
			if op.transferred {
				op.startProgram()
			}
		}
	}
}

func (op *flatPageOp) step() {
	switch op.stage {
	case opReadChip:
		op.c.srv.finish()
		op.stage = opReadXfer
		op.ch.srv.run(op)
	case opReadXfer:
		op.ch.srv.finish()
		op.grp.pageDone()
	case opWriteXfer:
		op.ch.srv.finish()
		op.transferred = true
		if op.chipHeld {
			op.startProgram()
		}
	case opWriteProg:
		op.c.srv.finish()
		op.grp.pageDone()
	}
}

func (op *flatPageOp) startProgram() {
	s := op.s
	op.stage = opWriteProg
	s.maybeGC(op.c)
	phys := s.allocPage(op.c, int32(op.lp/int64(s.cfg.TotalChips())))
	s.eng.After(s.pattern[phys%s.cfg.PagesPerBlock], op.step)
}

type flatBusy struct {
	s  *flatSSD
	sv *server
	d  time.Duration
}

func (b *flatBusy) serve(sv *server) {
	b.sv = sv
	b.s.eng.After(b.d, sv.finish)
}

func (s *flatSSD) occupyChip(c *flatChip, busy time.Duration) {
	c.srv.run(&flatBusy{s: s, d: busy})
}

// allocPage invalidates the old mapping of chip-local logical page cl and
// returns a fresh physical page on the active block.
func (s *flatSSD) allocPage(c *flatChip, cl int32) int {
	if old := int(c.mapping[cl]) - 1; old >= 0 {
		c.pageState[old] = 2 // invalid
		c.validCount[old/s.cfg.PagesPerBlock]--
	}
	if c.writeFront[c.activeBlock] >= s.cfg.PagesPerBlock {
		if len(c.freeBlocks) == 0 {
			// GC must have freed something by now; if not, the device is
			// truly full — a configuration error in the experiment.
			panic("ssd: chip out of free blocks (logical space overcommitted)")
		}
		c.activeBlock = c.freeBlocks[0]
		c.freeBlocks = c.freeBlocks[1:]
	}
	phys := c.activeBlock*s.cfg.PagesPerBlock + c.writeFront[c.activeBlock]
	c.writeFront[c.activeBlock]++
	c.pageState[phys] = 1
	c.rmap[phys] = cl
	c.validCount[c.activeBlock]++
	c.mapping[cl] = int32(phys) + 1
	return phys
}

// maybeGC runs greedy garbage collection when the chip's free-block pool is
// low: pick the block with the fewest valid pages, copy its valid pages to
// the active block (intra-chip copyback: read + program per page), erase it.
// The chip is busy for the whole episode — the background noise MittSSD is
// designed to dodge.
func (s *flatSSD) maybeGC(c *flatChip) {
	if len(c.freeBlocks) > s.cfg.GCFreeBlockLow {
		return
	}
	victim := -1
	best := int(^uint(0) >> 1)
	for b := 0; b < s.cfg.BlocksPerChip; b++ {
		if b == c.activeBlock {
			continue
		}
		if c.writeFront[b] == 0 {
			continue // never written; nothing to reclaim
		}
		if c.writeFront[b] < s.cfg.PagesPerBlock {
			continue // still open
		}
		if c.validCount[b] < best {
			victim, best = b, c.validCount[b]
		}
	}
	if victim < 0 {
		return
	}
	moved, busy := s.migrate(c, victim)
	// Occupy the chip for the episode (the moves + erase run after the
	// program that triggered them; timing-wise the chip is busy either way).
	s.occupyChip(c, busy)
	if s.gcHook != nil {
		s.gcHook(GCEvent{Chip: c.id, MovedPages: moved, BusyFor: busy})
	}
	s.maybeWearLevel(c)
}

// maybeWearLevel periodically migrates a full block to spread erase wear:
// read+program every valid page, then erase the source — another chip-busy
// episode MittSSD must see coming.
func (s *flatSSD) maybeWearLevel(c *flatChip) {
	if s.cfg.WearLevelEvery <= 0 {
		return
	}
	s.erasesSinceWL[c.id]++
	if s.erasesSinceWL[c.id] < s.cfg.WearLevelEvery {
		return
	}
	s.erasesSinceWL[c.id] = 0
	// Victim: the most-erased block with valid content.
	victim, worst := -1, -1
	for b := 0; b < s.cfg.BlocksPerChip; b++ {
		if b == c.activeBlock || c.validCount[b] == 0 {
			continue
		}
		if c.writeFront[b] < s.cfg.PagesPerBlock {
			continue
		}
		if c.eraseCount[b] > worst {
			victim, worst = b, c.eraseCount[b]
		}
	}
	if victim < 0 || len(c.freeBlocks) == 0 {
		return
	}
	moved, busy := s.migrate(c, victim)
	s.wlMoves += uint64(moved)
	s.occupyChip(c, busy)
	if s.gcHook != nil {
		s.gcHook(GCEvent{Chip: c.id, MovedPages: moved, BusyFor: busy, WearLevel: true})
	}
}

// migrate copies every valid page of block victim forward to the active
// block (intra-chip copyback: read + program per page; allocPage invalidates
// the source page) and erases victim into the free pool. It returns the pages
// moved and the chip time the episode consumes.
func (s *flatSSD) migrate(c *flatChip, victim int) (moved int, busy time.Duration) {
	ppb := s.cfg.PagesPerBlock
	base := victim * ppb
	for phys := base; phys < base+ppb; phys++ {
		if c.pageState[phys] != 1 {
			continue
		}
		moved++
		busy += s.cfg.ChipReadTime
		newPhys := s.allocPage(c, c.rmap[phys])
		busy += s.pattern[newPhys%ppb]
	}
	busy += s.cfg.EraseTime
	s.erases++
	c.eraseCount[victim]++
	c.validCount[victim] = 0
	c.writeFront[victim] = 0
	clear(c.pageState[base : base+ppb])
	c.freeBlocks = append(c.freeBlocks, victim)
	return moved, busy
}
