// Package ssd models a host-managed (OpenChannel / LightNVM) SSD: parallel
// channels and chips with independent queues, page-granular reads, MLC
// lower/upper-page program-time asymmetry, block erases, and a page-mapped
// FTL with greedy garbage collection (§4.3 of the paper).
//
// Contention structure is what matters for MittSSD: a read is a two-stage
// operation (chip cell read, then channel transfer), chips queue
// independently, and the channel is shared by all chips behind it. The
// paper's constants are used throughout: 100µs unloaded page read, 60µs
// channel queueing delay per outstanding same-channel IO, 1ms/2ms
// lower/upper-page programs, 6ms erases.
package ssd

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// Config holds SSD geometry and timing.
type Config struct {
	Channels        int
	ChipsPerChannel int
	BlocksPerChip   int
	PagesPerBlock   int
	PageSize        int

	// ChipReadTime is the cell-array read portion of a page read.
	ChipReadTime time.Duration
	// ChannelXferTime is the channel-transfer portion of a page read (and
	// the inbound transfer of a page program). ChipReadTime +
	// ChannelXferTime = the paper's 100µs unloaded page read.
	ChannelXferTime time.Duration
	// LowerPageProgram / UpperPageProgram are MLC program times (§4.3:
	// lower bits 1ms, upper bits 2ms).
	LowerPageProgram time.Duration
	UpperPageProgram time.Duration
	// EraseTime is the block-erase time (6ms).
	EraseTime time.Duration

	// GCFreeBlockLow triggers garbage collection on a chip when its free
	// block count drops to this threshold.
	GCFreeBlockLow int
	// OverprovisionBlocks per chip are invisible to the logical space.
	OverprovisionBlocks int
	// WearLevelEvery triggers a wear-leveling episode on a chip after
	// this many erases (0 disables): the most-worn block's content moves
	// to a fresh block and both are erased — §4.3's "occasional
	// wear-leveling page movements will introduce a significant noise".
	WearLevelEvery int
}

// DefaultConfig mirrors the paper's OpenChannel SSD: 16 channels, 128 chips,
// 16KB pages, 512 pages/block. Block count is sized for a small-but-real
// logical space; experiments that need more override it.
func DefaultConfig() Config {
	return Config{
		Channels:            16,
		ChipsPerChannel:     8,
		BlocksPerChip:       64,
		PagesPerBlock:       512,
		PageSize:            16 << 10,
		ChipReadTime:        40 * time.Microsecond,
		ChannelXferTime:     60 * time.Microsecond,
		LowerPageProgram:    time.Millisecond,
		UpperPageProgram:    2 * time.Millisecond,
		EraseTime:           6 * time.Millisecond,
		GCFreeBlockLow:      2,
		OverprovisionBlocks: 8,
		WearLevelEvery:      64,
	}
}

// TotalChips returns the chip count.
func (c Config) TotalChips() int { return c.Channels * c.ChipsPerChannel }

// LogicalBytes returns the exposed logical capacity (excluding
// overprovisioning).
func (c Config) LogicalBytes() int64 {
	user := c.BlocksPerChip - c.OverprovisionBlocks
	return int64(c.TotalChips()) * int64(user) * int64(c.PagesPerBlock) * int64(c.PageSize)
}

// ProgramPattern returns the per-physical-page program time for a block,
// reproducing the paper's profiled "11111121121122...2112" lower/upper
// layout: a 10-page prefix, a repeating "1122" body, and a "2112" suffix.
func (c Config) ProgramPattern() []time.Duration {
	n := c.PagesPerBlock
	pat := make([]time.Duration, n)
	lower, upper := c.LowerPageProgram, c.UpperPageProgram
	prefix := []byte("1111112112")
	suffix := []byte("2112")
	body := []byte("1122")
	for i := 0; i < n; i++ {
		var ch byte
		switch {
		case i < len(prefix):
			ch = prefix[i]
		case i >= n-len(suffix):
			ch = suffix[i-(n-len(suffix))]
		default:
			ch = body[(i-len(prefix))%len(body)]
		}
		if ch == '1' {
			pat[i] = lower
		} else {
			pat[i] = upper
		}
	}
	return pat
}

// GCEvent describes one garbage-collection or wear-leveling episode on a
// chip, reported to the host (host-managed flash: the OS initiates both and
// therefore knows about them — the white-box visibility MittSSD relies on).
type GCEvent struct {
	Chip       int
	MovedPages int
	// BusyFor is the chip time consumed: page moves + erases.
	BusyFor time.Duration
	// WearLevel marks a wear-leveling episode rather than space reclaim.
	WearLevel bool
}

// SSD is the device model. It implements blockio.Device.
type SSD struct {
	eng *sim.Engine
	cfg Config

	chips    []*chip
	channels []*channel
	pattern  []time.Duration

	// mapping is the FTL's logical-to-physical map: one directory for the
	// whole device, indexed by device logical page lp = cl*TotalChips +
	// chip, so leaf i maps lp [i*leafPages, (i+1)*leafPages) of every chip.
	// Striping puts consecutive logical pages on consecutive chips, so a
	// 16-page write fills one leaf, not one leaf on each of 16 chips. An
	// entry is the chip-local physical page (block*ppb+idx) + 1, 0 unmapped.
	// A leaf is allocated on the first write into its range, and a nil leaf
	// reads as all unmapped, the factory state.
	mapping []*mapLeaf

	inflight int
	reads    uint64
	writes   uint64
	erases   uint64
	wlMoves  uint64

	// Pools for the per-IO machinery: page ops, request groups, and
	// chip-busy episodes. The steady-state per-IO path allocates nothing.
	ops    sim.Freelist[pageOp]
	groups sim.Freelist[ioGroup]
	busies sim.Freelist[busyOp]

	// degrade scales every chip and channel operation; 1.0 = healthy. The
	// FTL's GC bookkeeping and the host-visible profile (ProgramPattern,
	// GCEvent.BusyFor) deliberately stay unscaled: a fail-slow device is
	// precisely one whose real timing has drifted from its profile (§8.1).
	degrade float64

	// Fault injection: fraction of request completions that fail with
	// EIO, drawn from a dedicated stream (no draws at rate 0).
	errRate float64
	errRNG  *sim.RNG

	gcHook func(GCEvent)
	rec    *metrics.Recorder
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (s *SSD) SetRecorder(rec *metrics.Recorder) { s.rec = rec }

// serverTask is one unit of work on a serial server. serve runs when the
// server reaches it; the task must call sv.finish exactly once (typically
// from a later timer) when the server may proceed to the next task.
type serverTask interface {
	serve(sv *server)
}

// server is a serial FIFO executor (a chip die or a channel bus). The queue
// is a consumed-prefix slice rather than a closure list: popping advances
// head and the backing array is reused, where the previous
// `queue = queue[1:]` form lost front capacity and reallocated on nearly
// every push.
type server struct {
	q       []serverTask
	head    int
	running bool
}

func (sv *server) run(t serverTask) {
	// Reclaim the consumed prefix once it dominates the slice so pushes
	// reuse the backing array even when the queue never fully drains.
	if sv.head > 32 && sv.head*2 >= len(sv.q) {
		n := copy(sv.q, sv.q[sv.head:])
		for i := n; i < len(sv.q); i++ {
			sv.q[i] = nil
		}
		sv.q = sv.q[:n]
		sv.head = 0
	}
	sv.q = append(sv.q, t)
	sv.kick()
}

func (sv *server) kick() {
	if sv.running || sv.head == len(sv.q) {
		return
	}
	sv.running = true
	t := sv.q[sv.head]
	sv.q[sv.head] = nil
	sv.head++
	if sv.head == len(sv.q) {
		sv.q = sv.q[:0]
		sv.head = 0
	}
	t.serve(sv)
}

// finish releases the server for the next queued task (the former per-task
// `release` closure).
func (sv *server) finish() {
	sv.running = false
	sv.kick()
}

// chip is one flash die: a serial server with its own queue plus FTL state.
type chip struct {
	id  int
	srv server

	// FTL state. It grows with the pages written, not with the chip's
	// capacity: a block's rmap is allocated when the block is first
	// programmed (the logical-to-physical map is the device's). A nil rmap
	// reads as all zero, which is the factory state, so reset clears what a
	// device has grown and allocates nothing.
	blocks      []block
	freeBlocks  []int // FIFO, popped by shifting so its one array, sized for every block, is kept
	activeBlock int
	sinceWL     int // erases since the last wear-leveling episode
}

// leafShift sets the mapping leaf size: leafPages logical pages, 2 KiB of
// entries. On the benchmark's paper-suite and node-ssd workloads 128-entry
// leaves allocated 7% and 8% less, but their 229 KB directory per device
// raised node-ssd's live heap by 12%; 2048-entry leaves allocated 5% and
// 12% more. 512 keeps a DefaultConfig device's directory at 57 KB.
const (
	leafShift = 9
	leafPages = 1 << leafShift
)

// mapLeaf maps device logical pages to chip-local physical page
// (block*ppb+idx) + 1, 0 unmapped.
type mapLeaf [leafPages]int32

// block is one erase block's FTL record.
type block struct {
	// rmap maps a page index to its chip-local logical page + 1 while the
	// page is valid, and 0 once it is free or invalid: no FTL decision
	// tells those two apart. nil until the block is first programmed.
	rmap   []int32
	valid  int // valid pages
	front  int // next unwritten page index
	erases int
}

// channel is the shared transfer bus behind a set of chips.
type channel struct {
	id  int
	srv server
}

// New builds an SSD on the engine.
func New(eng *sim.Engine, cfg Config) *SSD {
	if cfg.Channels <= 0 || cfg.ChipsPerChannel <= 0 || cfg.BlocksPerChip <= 1 ||
		cfg.PagesPerBlock <= 0 || cfg.PageSize <= 0 {
		panic("ssd: invalid geometry")
	}
	if cfg.OverprovisionBlocks >= cfg.BlocksPerChip {
		panic("ssd: overprovisioning exceeds capacity")
	}
	logicalPages := cfg.TotalChips() * (cfg.BlocksPerChip - cfg.OverprovisionBlocks) * cfg.PagesPerBlock
	s := &SSD{eng: eng, cfg: cfg, pattern: cfg.ProgramPattern(), degrade: 1.0,
		chips: make([]*chip, cfg.TotalChips()), channels: make([]*channel, cfg.Channels),
		mapping: make([]*mapLeaf, (logicalPages+leafPages-1)/leafPages)}
	for i := range s.channels {
		s.channels[i] = &channel{id: i}
	}
	for i := range s.chips {
		c := &chip{
			id:         i,
			blocks:     make([]block, cfg.BlocksPerChip),
			freeBlocks: make([]int, 0, cfg.BlocksPerChip),
		}
		c.resetFreeBlocks()
		s.chips[i] = c
	}
	return s
}

// resetFreeBlocks makes block 0 the active block and every other one free.
func (c *chip) resetFreeBlocks() {
	c.freeBlocks = c.freeBlocks[:0]
	for b := 1; b < len(c.blocks); b++ {
		c.freeBlocks = append(c.freeBlocks, b)
	}
	c.activeBlock = 0
}

// Config returns the SSD configuration.
func (s *SSD) Config() Config { return s.cfg }

// reset returns the device to its factory state on a (possibly reused)
// engine, exactly as New left it: FTL mappings cleared, server queues
// emptied, counters zeroed, degradation and fault injection off, hooks and
// recorder detached. The mapping leaves and block rmaps a run grew are
// cleared and kept, as are the per-IO pools, so a reset device writes
// the same pages again without allocating. Tasks still queued on a die or
// channel are orphaned, so only reset a device whose engine has been
// halted or reset.
func (s *SSD) reset(eng *sim.Engine) {
	s.eng = eng
	for _, leaf := range s.mapping {
		if leaf != nil {
			clear(leaf[:])
		}
	}
	for _, c := range s.chips {
		for i := range c.blocks {
			clear(c.blocks[i].rmap)
			c.blocks[i] = block{rmap: c.blocks[i].rmap}
		}
		c.resetFreeBlocks()
		c.sinceWL = 0
		c.srv.reset()
	}
	for _, ch := range s.channels {
		ch.srv.reset()
	}
	s.inflight = 0
	s.reads, s.writes, s.erases, s.wlMoves = 0, 0, 0, 0
	s.degrade = 1.0
	s.errRate, s.errRNG = 0, nil
	s.gcHook, s.rec = nil, nil
}

// reset empties a server queue, dropping any orphaned task references.
func (sv *server) reset() {
	for i := range sv.q {
		sv.q[i] = nil
	}
	sv.q = sv.q[:0]
	sv.head = 0
	sv.running = false
}

// Pool caches built SSDs by geometry so an experiment arena can hand a
// device from a finished leg to the next one together with the FTL leaves,
// block rmaps and per-IO pools it grew: a leg that writes the same pages
// as the last one then allocates none of them. Get resets a cached device
// onto the given engine (byte-identical to a fresh New) or builds one; Put
// parks a device whose engine is done with it.
type Pool struct {
	free map[Config][]*SSD
}

// Get returns a factory-state SSD with the given geometry on eng.
func (p *Pool) Get(eng *sim.Engine, cfg Config) *SSD {
	if cached := p.free[cfg]; len(cached) > 0 {
		s := cached[len(cached)-1]
		cached[len(cached)-1] = nil
		p.free[cfg] = cached[:len(cached)-1]
		s.reset(eng)
		return s
	}
	return New(eng, cfg)
}

// Put parks a device for reuse. The caller must be done driving its engine:
// any queued chip/channel work is abandoned at the next Get.
func (p *Pool) Put(s *SSD) {
	if p.free == nil {
		p.free = make(map[Config][]*SSD)
	}
	p.free[s.cfg] = append(p.free[s.cfg], s)
}

// SetDegradation scales all subsequent chip/channel operation times by
// factor (>1 slower). The host-visible profile does not move with it.
func (s *SSD) SetDegradation(factor float64) {
	if factor <= 0 {
		panic("ssd: degradation factor must be positive")
	}
	s.degrade = factor
}

// Degradation returns the current factor.
func (s *SSD) Degradation() float64 { return s.degrade }

// SetErrorInjection makes rate of subsequent request completions fail with
// blockio.ErrIO, drawn from rng (a dedicated stream). Rate 0 disables and
// draws nothing.
func (s *SSD) SetErrorInjection(rate float64, rng *sim.RNG) {
	if rate < 0 || rate > 1 {
		panic("ssd: error rate must be in [0,1]")
	}
	s.errRate, s.errRNG = rate, rng
}

// scaled applies the fail-slow factor to a device timing cost.
func (s *SSD) scaled(d time.Duration) time.Duration {
	if s.degrade != 1.0 {
		d = time.Duration(float64(d) * s.degrade)
	}
	return d
}

// SetGCHook registers the host-visible GC notification.
func (s *SSD) SetGCHook(fn func(GCEvent)) { s.gcHook = fn }

// InFlight implements blockio.Device.
func (s *SSD) InFlight() int { return s.inflight }

// Stats returns operation counters (reads, writes, erases).
func (s *SSD) Stats() (reads, writes, erases uint64) {
	return s.reads, s.writes, s.erases
}

// EraseCount returns the total block erases on a chip (wear accounting).
func (s *SSD) EraseCount(chipID int) int {
	total := 0
	for _, b := range s.chips[chipID].blocks {
		total += b.erases
	}
	return total
}

// ChipForOffset exposes the static striping: which chip and channel serve a
// logical byte offset. MittSSD uses this to pick the queue to inspect.
func (s *SSD) ChipForOffset(off int64) (chipID, channelID int) {
	lp := off / int64(s.cfg.PageSize)
	chipID = int(lp % int64(s.cfg.TotalChips()))
	channelID = chipID % s.cfg.Channels
	return chipID, channelID
}

// PageSpan returns the logical pages covered by [off, off+size).
func (s *SSD) PageSpan(off int64, size int) (first, count int64) {
	ps := int64(s.cfg.PageSize)
	first = off / ps
	last := (off + int64(size) - 1) / ps
	return first, last - first + 1
}

// Submit implements blockio.Device. Requests larger than a page are striped
// into per-page sub-IOs; the request completes when the last sub-IO does
// (§4.3: ">16KB multi-page read ... is automatically chopped").
func (s *SSD) Submit(req *blockio.Request) {
	if req.Offset < 0 || req.End() > s.cfg.LogicalBytes() {
		panic(fmt.Sprintf("ssd: IO out of range: %v", req))
	}
	if req.Op == blockio.Erase {
		panic("ssd: erase is device-internal")
	}
	req.DispatchTime = s.eng.Now()
	s.inflight++
	s.rec.DevEnter(metrics.RSSD, req)
	first, count := s.PageSpan(req.Offset, req.Size)
	grp := s.groups.Get(nil)
	grp.s, grp.req, grp.remaining = s, req, int(count)
	for p := first; p < first+count; p++ {
		if req.Op == blockio.Read {
			s.readPage(grp, p)
		} else {
			s.writePage(grp, p)
		}
	}
}

// ioGroup tracks one submitted request's outstanding page sub-IOs; the
// request completes when the last page does. Pooled: one per in-flight
// request, recycled at completion.
type ioGroup struct {
	s         *SSD
	req       *blockio.Request
	remaining int
}

func (g *ioGroup) pageDone() {
	g.remaining--
	if g.remaining != 0 {
		return
	}
	s, req := g.s, g.req
	g.req = nil
	s.groups.Put(g)
	if s.errRate > 0 && s.errRNG != nil && s.errRNG.Bool(s.errRate) {
		req.Err = blockio.ErrIO
	}
	req.CompleteTime = s.eng.Now()
	s.inflight--
	s.rec.DevDone(metrics.RSSD, req)
	if req.OnComplete != nil {
		req.OnComplete(req)
	}
}

// pageOp stages for the read and write pipelines.
const (
	opReadChip  uint8 = iota // cell read: die occupied
	opReadXfer               // data out: channel bus occupied
	opWriteXfer              // data in over the channel; die slot pending or held
	opWriteProg              // programming: die occupied
)

// pageOp is one per-page sub-IO flowing through a chip die and its channel
// bus. It replaces the former nest of per-page closures (up to five per
// written page): the op is pooled, pre-binds its timer callback once, and
// serves as the queued task on both servers.
type pageOp struct {
	s   *SSD
	grp *ioGroup
	req *blockio.Request
	lp  int64
	c   *chip
	ch  *channel

	stage uint8
	// Write-path interlock: the die slot is reserved at submit time (so
	// later reads queue behind it, as on real NAND), but programming can
	// only start once the channel has transferred the data in.
	transferred bool
	chipHeld    bool

	stepFn func() // pre-bound op.step, reused across recycles
}

func newPageOp() *pageOp { op := &pageOp{}; op.stepFn = op.step; return op }

func (s *SSD) getOp(grp *ioGroup, lp int64, stage uint8) *pageOp {
	op := s.ops.Get(newPageOp)
	chipID := int(lp % int64(s.cfg.TotalChips()))
	op.s, op.grp, op.req, op.lp = s, grp, grp.req, lp
	op.c = s.chips[chipID]
	op.ch = s.channels[chipID%s.cfg.Channels]
	op.stage = stage
	op.transferred, op.chipHeld = false, false
	return op
}

func (s *SSD) freeOp(op *pageOp) {
	op.grp, op.req, op.c, op.ch = nil, nil, nil, nil
	s.ops.Put(op)
}

// serve implements serverTask: the op reached the front of a die or channel
// queue. For writes the same op is queued on both servers; sv disambiguates.
func (op *pageOp) serve(sv *server) {
	switch op.stage {
	case opReadChip:
		op.s.rec.DevStart(metrics.RSSD, op.req)
		op.s.eng.After(op.s.scaled(op.s.cfg.ChipReadTime), op.stepFn)
	case opReadXfer:
		op.s.eng.After(op.s.scaled(op.s.cfg.ChannelXferTime), op.stepFn)
	default: // opWriteXfer: channel transfer in, or the die slot opening up
		if sv == &op.ch.srv {
			op.s.eng.After(op.s.scaled(op.s.cfg.ChannelXferTime), op.stepFn)
		} else {
			op.chipHeld = true
			if op.transferred {
				op.startProgram()
			}
		}
	}
}

// step is the op's single timer callback; stage tells it which wait ended.
func (op *pageOp) step() {
	switch op.stage {
	case opReadChip:
		op.c.srv.finish()
		op.stage = opReadXfer
		op.ch.srv.run(op)
	case opReadXfer:
		op.ch.srv.finish()
		grp := op.grp
		op.s.freeOp(op)
		grp.pageDone()
	case opWriteXfer:
		op.ch.srv.finish()
		op.transferred = true
		if op.chipHeld {
			op.startProgram()
		}
	case opWriteProg:
		op.c.srv.finish()
		grp := op.grp
		op.s.freeOp(op)
		grp.pageDone()
	}
}

func (op *pageOp) startProgram() {
	s := op.s
	op.stage = opWriteProg
	s.rec.DevStart(metrics.RSSD, op.req)
	s.maybeGC(op.c)
	phys := s.allocPage(op.c, int32(op.lp/int64(s.cfg.TotalChips())))
	s.eng.After(s.scaled(s.pattern[phys%s.cfg.PagesPerBlock]), op.stepFn)
}

// readPage: chip cell read (die occupied), then channel transfer out.
func (s *SSD) readPage(grp *ioGroup, lp int64) {
	s.reads++
	op := s.getOp(grp, lp, opReadChip)
	op.c.srv.run(op)
}

// writePage reserves the die slot and starts the channel transfer at once;
// pageOp's interlock sequences transfer-then-program.
func (s *SSD) writePage(grp *ioGroup, lp int64) {
	s.writes++
	op := s.getOp(grp, lp, opWriteXfer)
	op.ch.srv.run(op)
	op.c.srv.run(op)
}

// busyOp occupies a die for a fixed episode (GC, wear leveling).
type busyOp struct {
	s      *SSD
	sv     *server
	d      time.Duration
	stepFn func()
}

func newBusyOp() *busyOp { b := &busyOp{}; b.stepFn = b.step; return b }

func (b *busyOp) serve(sv *server) {
	b.sv = sv
	b.s.eng.After(b.d, b.stepFn)
}

func (b *busyOp) step() {
	sv := b.sv
	b.sv = nil
	b.s.busies.Put(b)
	sv.finish()
}

func (s *SSD) occupyChip(c *chip, busy time.Duration) {
	b := s.busies.Get(newBusyOp)
	b.s, b.d = s, s.scaled(busy)
	c.srv.run(b)
}

// allocPage invalidates the old mapping of chip-local logical page cl and
// returns a fresh physical page on the active block.
func (s *SSD) allocPage(c *chip, cl int32) int {
	ppb := s.cfg.PagesPerBlock
	lp := int(cl)*len(s.chips) + c.id
	leaf := s.mapping[lp>>leafShift]
	if leaf == nil {
		leaf = new(mapLeaf)
		s.mapping[lp>>leafShift] = leaf
	}
	entry := &leaf[lp&(leafPages-1)]
	if old := int(*entry) - 1; old >= 0 {
		b := &c.blocks[old/ppb]
		b.rmap[old%ppb] = 0 // invalid
		b.valid--
	}
	if c.blocks[c.activeBlock].front >= ppb {
		if len(c.freeBlocks) == 0 {
			// GC must have freed something by now; if not, the device is
			// truly full — a configuration error in the experiment.
			panic("ssd: chip out of free blocks (logical space overcommitted)")
		}
		c.activeBlock = c.freeBlocks[0]
		c.freeBlocks = append(c.freeBlocks[:0], c.freeBlocks[1:]...)
	}
	b := &c.blocks[c.activeBlock]
	if b.rmap == nil {
		b.rmap = make([]int32, ppb)
	}
	phys := c.activeBlock*ppb + b.front
	b.rmap[b.front] = cl + 1
	b.front++
	b.valid++
	*entry = int32(phys) + 1
	return phys
}

// maybeGC runs greedy garbage collection when the chip's free-block pool is
// low: pick the block with the fewest valid pages, copy its valid pages to
// the active block (intra-chip copyback: read + program per page), erase it.
// The chip is busy for the whole episode — the background noise MittSSD is
// designed to dodge.
func (s *SSD) maybeGC(c *chip) {
	if len(c.freeBlocks) > s.cfg.GCFreeBlockLow {
		return
	}
	victim := -1
	best := int(^uint(0) >> 1)
	for i, b := range c.blocks {
		if i == c.activeBlock {
			continue
		}
		if b.front == 0 {
			continue // never written; nothing to reclaim
		}
		if b.front < s.cfg.PagesPerBlock {
			continue // still open
		}
		if b.valid < best {
			victim, best = i, b.valid
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
func (s *SSD) maybeWearLevel(c *chip) {
	if s.cfg.WearLevelEvery <= 0 {
		return
	}
	c.sinceWL++
	if c.sinceWL < s.cfg.WearLevelEvery {
		return
	}
	c.sinceWL = 0
	// Victim: the most-erased block with valid content.
	victim, worst := -1, -1
	for i, b := range c.blocks {
		if i == c.activeBlock || b.valid == 0 {
			continue
		}
		if b.front < s.cfg.PagesPerBlock {
			continue
		}
		if b.erases > worst {
			victim, worst = i, b.erases
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
// block (intra-chip copyback: read + program per page) and erases victim
// into the free pool. allocPage invalidates each source page as it moves
// it, so the erased block's rmap is left all zero. It returns the pages
// moved and the chip time the episode consumes.
func (s *SSD) migrate(c *chip, victim int) (moved int, busy time.Duration) {
	ppb := s.cfg.PagesPerBlock
	v := &c.blocks[victim]
	for _, owner := range v.rmap {
		if owner == 0 {
			continue
		}
		moved++
		busy += s.cfg.ChipReadTime
		newPhys := s.allocPage(c, owner-1)
		busy += s.pattern[newPhys%ppb]
	}
	busy += s.cfg.EraseTime
	s.erases++
	v.erases++
	v.valid = 0
	v.front = 0
	c.freeBlocks = append(c.freeBlocks, victim)
	return moved, busy
}

// WearLevelMoves returns the total pages moved by wear leveling.
func (s *SSD) WearLevelMoves() uint64 { return s.wlMoves }
