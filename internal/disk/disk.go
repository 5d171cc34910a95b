// Package disk models a rotating hard disk with a seek-distance-dependent
// service time, an SSTF-reordering device queue, and an NVRAM write-back
// buffer — the three properties of real disks that the paper's MittNoop and
// MittCFQ predictors have to contend with (§4.1–4.2, §7.8.6, Appendix A).
//
// The model is deliberately *not* trivially predictable: per-IO service time
// includes zero-mean noise and the device reorders its queue by SSTF, so a
// MittOS predictor sitting above it accumulates drift exactly as on real
// hardware and has to calibrate via Tdiff feedback. Prediction accuracy in
// the Figure 9 experiment is therefore an emergent property of the model,
// not an assumption.
package disk

import (
	"fmt"
	"math"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// Config holds the disk's physical parameters.
type Config struct {
	// CapacityBytes is the size of the logical address space.
	CapacityBytes int64
	// SeekBase is the fixed positioning cost of any non-sequential IO
	// (controller overhead + head settle + average partial rotation).
	SeekBase time.Duration
	// SeekMax is the additional full-stroke seek cost; the seek curve is
	// SeekBase + SeekMax*sqrt(distance/capacity), the standard concave
	// shape of disk seek profiles (Ruemmler & Wilkes).
	SeekMax time.Duration
	// SeqThreshold is the byte distance below which an IO counts as
	// sequential and pays only SeqCost.
	SeqThreshold int64
	// SeqCost is the near-zero positioning cost of a sequential IO.
	SeqCost time.Duration
	// TransferPerKB is the media transfer cost per KiB.
	TransferPerKB time.Duration
	// ServiceNoiseStd is the standard deviation of zero-mean Gaussian
	// noise added to every spindle operation (vibration, thermal
	// recalibration, rotational phase) — the reason profiling needs
	// multiple tries (Appendix A: "10 tries and linear regression").
	ServiceNoiseStd time.Duration
	// QueueDepth is the device (NCQ) queue depth visible to SSTF
	// reordering. The OS dispatch queue above holds the excess.
	QueueDepth int
	// AgeLimit bounds SSTF starvation: a queued IO older than this is
	// served next regardless of seek distance, mirroring the command
	// aging real NCQ firmware applies so far-offset IOs cannot starve
	// behind a stream of near-head arrivals.
	AgeLimit time.Duration
	// WriteBufferSlots is the capacity of the capacitor-backed NVRAM
	// write buffer (§7.8.6). 0 disables write buffering.
	WriteBufferSlots int
	// WriteAckLatency is the latency of a buffered write acknowledgement.
	WriteAckLatency time.Duration
}

// DefaultConfig returns parameters calibrated so a random 4KB read takes
// 6–10ms without contention, matching §6's "latencies without noise are
// expected to be 6-10ms (disk)".
func DefaultConfig() Config {
	return Config{
		CapacityBytes:    1000 << 30, // 1TB, as the Emulab d430 testbed
		SeekBase:         2 * time.Millisecond,
		SeekMax:          8 * time.Millisecond,
		SeqThreshold:     2 << 20,
		SeqCost:          300 * time.Microsecond,
		TransferPerKB:    10 * time.Microsecond, // ≈100MB/s media rate
		ServiceNoiseStd:  250 * time.Microsecond,
		QueueDepth:       31,
		AgeLimit:         15 * time.Millisecond,
		WriteBufferSlots: 4096,
		WriteAckLatency:  50 * time.Microsecond,
	}
}

// destageRec is the disk's private copy of one NVRAM-buffered write: the
// originating request is acked (terminal) at buffer time, so the spindle
// must not rely on the pointer staying valid.
type destageRec struct {
	offset int64
	size   int
}

// destageRing is the NVRAM write buffer: a FIFO ring over a backing slice,
// O(1) to push and pop and allocation-free once grown. The backing slice
// starts small and doubles (linearising the ring) when full, never beyond
// the WriteBufferSlots limit Submit admits against, so a disk that buffers
// few writes never pays for the full 4096-slot capacity.
type destageRing struct {
	buf  []destageRec
	head int // index of the oldest record
	n    int // records buffered
}

// destageRingMin is the first allocation's size.
const destageRingMin = 16

// push appends w at the tail, growing the backing slice up to limit slots.
// The caller guarantees n < limit.
func (r *destageRing) push(w destageRec, limit int) {
	if r.n == len(r.buf) {
		r.grow(limit)
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = w
	r.n++
}

// grow doubles the backing slice (capped at limit) and copies the ring into
// it oldest-first, so head restarts at 0.
func (r *destageRing) grow(limit int) {
	size := min(max(2*len(r.buf), destageRingMin), limit)
	buf := make([]destageRec, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// pop removes and returns the oldest record. The caller guarantees n > 0.
func (r *destageRing) pop() destageRec {
	w := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return w
}

// Disk is the device model. It implements blockio.Device.
type Disk struct {
	eng *sim.Engine
	cfg Config
	rng *sim.RNG

	headPos int64
	queue   []*blockio.Request // device queue, reordered by SSTF
	destage destageRing        // NVRAM writes awaiting idle destaging
	scratch blockio.Request    // reused to present destage records to the spindle
	busy    bool

	inflight int
	served   uint64

	// degrade scales every spindle operation; 1.0 = healthy. Models the
	// §8.1 concern that "hardware performance can degrade over time" (or
	// improve as SLC cells wear), invalidating old latency profiles.
	degrade float64

	// Fault injection: fraction of completions that fail with EIO, drawn
	// from a dedicated stream so an idle (rate 0) injector consumes no
	// randomness and cannot perturb a seeded run.
	errRate float64
	errRNG  *sim.RNG

	// onSlotFree lets the scheduler above refill the device queue.
	onSlotFree func()

	svcs sim.Freelist[diskSvcOp]
	acks sim.Freelist[diskAckOp]

	rec *metrics.Recorder
}

// diskSvcOp is the pooled spindle-service completion (the timer callback at
// the end of one seek+transfer).
type diskSvcOp struct {
	d        *Disk
	req      *blockio.Request
	destaged bool
	fn       func() // pre-bound op.fire
}

func newDiskSvcOp() *diskSvcOp { op := &diskSvcOp{}; op.fn = op.fire; return op }

func (op *diskSvcOp) fire() {
	d, req, destaged := op.d, op.req, op.destaged
	op.req = nil
	d.svcs.Put(op)
	d.headPos = req.End()
	d.busy = false
	d.served++
	if !destaged {
		d.complete(req)
	}
	if d.onSlotFree != nil {
		d.onSlotFree()
	}
	d.kick()
}

// diskAckOp is the pooled NVRAM write-acknowledgement timer callback.
type diskAckOp struct {
	d   *Disk
	req *blockio.Request
	fn  func() // pre-bound op.fire
}

func newDiskAckOp() *diskAckOp { op := &diskAckOp{}; op.fn = op.fire; return op }

func (op *diskAckOp) fire() {
	d, req := op.d, op.req
	op.req = nil
	d.acks.Put(op)
	d.complete(req)
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (d *Disk) SetRecorder(rec *metrics.Recorder) { d.rec = rec }

// New builds a disk on the engine. rng must be a dedicated stream.
func New(eng *sim.Engine, cfg Config, rng *sim.RNG) *Disk {
	if cfg.CapacityBytes <= 0 {
		panic("disk: capacity must be positive")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	return &Disk{eng: eng, cfg: cfg, rng: rng, degrade: 1.0}
}

// SetDegradation scales all subsequent spindle operations by factor
// (>1 slower, <1 faster). The §8.1 scenario: a drive ages and its offline
// profile silently goes stale.
func (d *Disk) SetDegradation(factor float64) {
	if factor <= 0 {
		panic("disk: degradation factor must be positive")
	}
	d.degrade = factor
}

// Degradation returns the current factor.
func (d *Disk) Degradation() float64 { return d.degrade }

// SetErrorInjection makes rate of subsequent completions fail with
// blockio.ErrIO, drawn from rng (which must be a dedicated stream). Rate 0
// disables and draws nothing.
func (d *Disk) SetErrorInjection(rate float64, rng *sim.RNG) {
	if rate < 0 || rate > 1 {
		panic("disk: error rate must be in [0,1]")
	}
	d.errRate, d.errRNG = rate, rng
}

// Config returns the disk's configuration.
func (d *Disk) Config() Config { return d.cfg }

// SetSlotFreeHook registers a callback invoked whenever a device-queue slot
// frees up, so the IO scheduler above can dispatch more requests.
func (d *Disk) SetSlotFreeHook(fn func()) { d.onSlotFree = fn }

// CanAccept reports whether the device queue has room (NCQ not full).
func (d *Disk) CanAccept() bool { return len(d.queue) < d.cfg.QueueDepth }

// InFlight implements blockio.Device.
func (d *Disk) InFlight() int { return d.inflight }

// QueueLen returns the current device-queue occupancy (reads + destage
// candidates are not included; only spindle-bound queued IOs).
func (d *Disk) QueueLen() int { return len(d.queue) }

// Served returns the number of completed spindle operations.
func (d *Disk) Served() uint64 { return d.served }

// HeadPos returns the current head position (for tests and predictors; the
// paper notes the head position is "known from the last IO completed").
func (d *Disk) HeadPos() int64 { return d.headPos }

// Submit implements blockio.Device. Writes are absorbed by the NVRAM buffer
// when space allows; reads (and overflow writes) enter the device queue.
func (d *Disk) Submit(req *blockio.Request) {
	if req.Offset < 0 || req.End() > d.cfg.CapacityBytes {
		panic(fmt.Sprintf("disk: IO out of range: %v", req))
	}
	req.DispatchTime = d.eng.Now()
	d.inflight++
	d.rec.DevEnter(metrics.RDisk, req)
	if req.Op == blockio.Write && d.cfg.WriteBufferSlots > 0 &&
		d.destage.n < d.cfg.WriteBufferSlots {
		// NVRAM absorbs the write; destage happens during idle periods.
		// The buffer keeps its own copy of the geometry: the request is
		// acked (and possibly recycled by its owner) before the spindle
		// writes the data back.
		d.destage.push(destageRec{offset: req.Offset, size: req.Size}, d.cfg.WriteBufferSlots)
		op := d.acks.Get(newDiskAckOp)
		op.d, op.req = d, req
		d.eng.After(d.cfg.WriteAckLatency, op.fn)
		d.kick() // idle disks destage immediately
		return
	}
	d.queue = append(d.queue, req)
	d.kick()
}

// kick starts the service loop if the spindle is idle.
func (d *Disk) kick() {
	if d.busy {
		return
	}
	req, destaged := d.next()
	if req == nil {
		return
	}
	d.busy = true
	if !destaged {
		d.rec.DevStart(metrics.RDisk, req)
	}
	svc := d.ServiceTime(d.headPos, req)
	op := d.svcs.Get(newDiskSvcOp)
	op.d, op.req, op.destaged = d, req, destaged
	d.eng.After(svc, op.fn)
}

// next pops the request the spindle serves next from the device queue: the
// oldest one if it has waited past AgeLimit (command aging), else the
// SSTF-closest. If the queue is empty it opportunistically destages one
// buffered write (idle destaging). The second result reports whether the
// request is a destage (its completion callback already fired at NVRAM-ack
// time).
//
// One pass over the queue drops cancelled requests (they never reach the
// spindle) in queue order, compacts the survivors, and tracks the first
// strictly-oldest and first strictly-nearest survivor as it goes.
func (d *Disk) next() (*blockio.Request, bool) {
	live := d.queue[:0]
	oldest, oldestAt := -1, sim.Time(math.MaxInt64)
	nearest, nearestDist := 0, int64(math.MaxInt64)
	for _, r := range d.queue {
		if r.Canceled() {
			d.inflight--
			d.rec.DevDrop(metrics.RDisk, r)
			r.Dropped()
			continue
		}
		i := len(live)
		live = append(live, r)
		if r.DispatchTime < oldestAt {
			oldest, oldestAt = i, r.DispatchTime
		}
		if dist := absI64(r.Offset - d.headPos); dist < nearestDist {
			nearest, nearestDist = i, dist
		}
	}
	d.queue = live
	if len(live) == 0 {
		if d.destage.n == 0 {
			return nil, false
		}
		w := d.destage.pop()
		d.scratch = blockio.Request{Op: blockio.Write, Offset: w.offset, Size: w.size}
		return &d.scratch, true
	}
	pick := nearest
	if d.cfg.AgeLimit > 0 && d.eng.Now().Sub(oldestAt) > d.cfg.AgeLimit {
		pick = oldest
	}
	req := live[pick]
	d.queue = append(live[:pick], live[pick+1:]...)
	return req, false
}

func (d *Disk) complete(req *blockio.Request) {
	if d.errRate > 0 && d.errRNG != nil && d.errRNG.Bool(d.errRate) {
		req.Err = blockio.ErrIO
	}
	req.CompleteTime = d.eng.Now()
	d.inflight--
	d.rec.DevDone(metrics.RDisk, req)
	if req.OnComplete != nil {
		req.OnComplete(req)
	}
}

// ServiceTime returns the spindle time to serve req from head position
// `from`, including the model's per-IO noise. Exposed so tests and the
// profiler can call it; predictors must NOT — they only see profiled data.
func (d *Disk) ServiceTime(from int64, req *blockio.Request) time.Duration {
	base := d.seekCost(from, req.Offset) + d.transferCost(req.Size)
	if d.cfg.ServiceNoiseStd > 0 {
		base = d.rng.NormalDuration(base, d.cfg.ServiceNoiseStd)
	}
	if base < d.cfg.SeqCost {
		base = d.cfg.SeqCost
	}
	if d.degrade != 1.0 {
		base = time.Duration(float64(base) * d.degrade)
	}
	return base
}

func (d *Disk) seekCost(from, to int64) time.Duration {
	dist := absI64(to - from)
	if dist <= d.cfg.SeqThreshold {
		return d.cfg.SeqCost
	}
	frac := float64(dist) / float64(d.cfg.CapacityBytes)
	return d.cfg.SeekBase + time.Duration(float64(d.cfg.SeekMax)*math.Sqrt(frac))
}

func (d *Disk) transferCost(size int) time.Duration {
	kb := (size + 1023) / 1024
	return time.Duration(kb) * d.cfg.TransferPerKB
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
