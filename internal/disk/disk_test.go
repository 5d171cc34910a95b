package disk

import (
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

func newTestDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig(), sim.NewRNG(1, t.Name()))
}

func read(off int64, size int) *blockio.Request {
	return &blockio.Request{Op: blockio.Read, Offset: off, Size: size}
}

func TestRandomReadLatencyBand(t *testing.T) {
	// §6: random 4KB reads without noise should land in ~6-10ms.
	eng, d := newTestDisk(t)
	rng := sim.NewRNG(2, "offsets")
	s := stats.NewSample(0)
	var issue func(i int)
	issue = func(i int) {
		if i == 0 {
			return
		}
		r := read(rng.Int63n(d.Config().CapacityBytes-4096), 4096)
		r.OnComplete = func(r *blockio.Request) {
			s.Add(r.Latency())
			issue(i - 1)
		}
		r.SubmitTime = eng.Now()
		d.Submit(r)
	}
	issue(500)
	eng.Run()
	mean := s.Mean()
	if mean < 4*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean random-read latency %v outside 4–12ms", mean)
	}
	if s.N() != 500 {
		t.Fatalf("completed %d of 500", s.N())
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	eng, d := newTestDisk(t)
	var seqLat, randLat time.Duration
	r1 := read(0, 4096)
	r1.OnComplete = func(*blockio.Request) {}
	d.Submit(r1)
	eng.Run()
	r2 := read(8192, 4096) // sequential w.r.t. head
	r2.SubmitTime = eng.Now()
	r2.OnComplete = func(r *blockio.Request) { seqLat = r.Latency() }
	d.Submit(r2)
	eng.Run()
	r3 := read(500<<30, 4096) // half-stroke seek
	r3.SubmitTime = eng.Now()
	r3.OnComplete = func(r *blockio.Request) { randLat = r.Latency() }
	d.Submit(r3)
	eng.Run()
	if seqLat*4 > randLat {
		t.Fatalf("sequential %v not ≪ random %v", seqLat, randLat)
	}
}

func TestSSTFOrdering(t *testing.T) {
	// While one IO is in service, queue three more; the disk must serve
	// the one closest to the head next, not FIFO.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ServiceNoiseStd = 0 // determinism for ordering assertions
	d := New(eng, cfg, sim.NewRNG(1, "sstf"))
	var order []int64
	mk := func(off int64) *blockio.Request {
		r := read(off, 4096)
		r.OnComplete = func(r *blockio.Request) { order = append(order, r.Offset) }
		return r
	}
	d.Submit(mk(100 << 30)) // starts service immediately; head ends near 100GB
	d.Submit(mk(900 << 30)) // farthest
	d.Submit(mk(120 << 30)) // closest to head after first completes
	d.Submit(mk(500 << 30))
	eng.Run()
	want := []int64{100 << 30, 120 << 30, 500 << 30, 900 << 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v (SSTF)", order, want)
		}
	}
}

func TestWriteBufferAbsorbsWrites(t *testing.T) {
	// §7.8.6: buffered writes ack in µs even when the spindle is busy.
	eng, d := newTestDisk(t)
	// Saturate the spindle with reads.
	for i := 0; i < 10; i++ {
		r := read(int64(i)*(50<<30), 4096)
		r.OnComplete = func(*blockio.Request) {}
		d.Submit(r)
	}
	var wLat time.Duration
	w := &blockio.Request{Op: blockio.Write, Offset: 4096, Size: 4096}
	w.SubmitTime = eng.Now()
	w.OnComplete = func(r *blockio.Request) { wLat = r.Latency() }
	d.Submit(w)
	eng.Run()
	if wLat > time.Millisecond {
		t.Fatalf("buffered write latency %v, want ≪1ms", wLat)
	}
}

func TestDestageDoesNotDoubleComplete(t *testing.T) {
	eng, d := newTestDisk(t)
	completions := 0
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: 4096}
	w.OnComplete = func(*blockio.Request) { completions++ }
	d.Submit(w)
	eng.Run() // ack + idle destage both happen
	if completions != 1 {
		t.Fatalf("write completed %d times, want exactly 1", completions)
	}
	if d.Served() != 1 {
		t.Fatalf("destaged spindle ops = %d, want 1", d.Served())
	}
}

func TestCanceledRequestSkipped(t *testing.T) {
	eng, d := newTestDisk(t)
	served := 0
	r1 := read(0, 4096)
	r1.OnComplete = func(*blockio.Request) { served++ }
	r2 := read(500<<30, 4096)
	r2.OnComplete = func(*blockio.Request) { served++ }
	r3 := read(900<<30, 4096)
	r3.OnComplete = func(*blockio.Request) { served++ }
	d.Submit(r1)
	d.Submit(r2)
	d.Submit(r3)
	r2.Cancel()
	eng.Run()
	if served != 2 {
		t.Fatalf("served %d, want 2 (one canceled)", served)
	}
	if d.InFlight() != 0 {
		t.Fatalf("inflight %d after drain", d.InFlight())
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, d := newTestDisk(t)
	r := read(0, 4096)
	r.OnComplete = func(*blockio.Request) {}
	d.Submit(r)
	if d.InFlight() != 1 {
		t.Fatalf("inflight = %d, want 1", d.InFlight())
	}
	eng.Run()
	if d.InFlight() != 0 {
		t.Fatalf("inflight = %d after completion", d.InFlight())
	}
}

func TestSlotFreeHookFires(t *testing.T) {
	eng, d := newTestDisk(t)
	fired := 0
	d.SetSlotFreeHook(func() { fired++ })
	r := read(0, 4096)
	r.OnComplete = func(*blockio.Request) {}
	d.Submit(r)
	eng.Run()
	if fired == 0 {
		t.Fatal("slot-free hook never fired")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, d := newTestDisk(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range IO")
		}
	}()
	d.Submit(read(d.Config().CapacityBytes, 4096))
}

func TestLargerIOTakesLonger(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ServiceNoiseStd = 0
	d := New(eng, cfg, sim.NewRNG(1, "size"))
	lat := func(size int) time.Duration {
		r := read(500<<30, size)
		r.SubmitTime = eng.Now()
		var l time.Duration
		r.OnComplete = func(r *blockio.Request) { l = r.Latency() }
		d.Submit(r)
		eng.Run()
		return l
	}
	small := lat(4096)
	large := lat(1 << 20)
	if large <= small {
		t.Fatalf("1MB read (%v) not slower than 4KB (%v)", large, small)
	}
	// The paper's noise injector: a 1MB read adds ~12ms of busy time.
	if large < 5*time.Millisecond {
		t.Fatalf("1MB read %v implausibly fast", large)
	}
}

func TestProfileAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	prof := ProfileTwin(cfg, 42, DefaultProfilerOptions())
	// Compare prediction vs the analytic noise-free service time across
	// distances. Errors should be well under a millisecond on average.
	eng := sim.NewEngine()
	truth := New(eng, Config{
		CapacityBytes: cfg.CapacityBytes, SeekBase: cfg.SeekBase,
		SeekMax: cfg.SeekMax, SeqThreshold: cfg.SeqThreshold,
		SeqCost: cfg.SeqCost, TransferPerKB: cfg.TransferPerKB,
		QueueDepth: 1,
	}, sim.NewRNG(1, "truth"))
	var sumErr time.Duration
	n := 0
	for _, distGB := range []int64{1, 10, 50, 100, 250, 500, 900} {
		dist := distGB << 30
		want := truth.ServiceTime(0, read(dist, 4096))
		got := prof.ServiceTime(dist, 4096)
		err := got - want
		if err < 0 {
			err = -err
		}
		sumErr += err
		n++
	}
	avg := sumErr / time.Duration(n)
	if avg > time.Millisecond {
		t.Fatalf("profile mean abs error %v > 1ms", avg)
	}
}

func TestProfileSeekMonotoneOverall(t *testing.T) {
	prof := ProfileTwin(DefaultConfig(), 7, ProfilerOptions{Buckets: 16, Tries: 8, ProbeSize: 4096})
	first := prof.SeekCost(prof.BucketBytes)
	last := prof.SeekCost(prof.BucketBytes * int64(len(prof.SeekBuckets)-1))
	if last <= first {
		t.Fatalf("seek profile not increasing: near=%v far=%v", first, last)
	}
}

func TestProfileServiceTimeScalesWithSize(t *testing.T) {
	prof := ProfileTwin(DefaultConfig(), 7, ProfilerOptions{Buckets: 8, Tries: 4, ProbeSize: 4096})
	if prof.ServiceTime(1<<30, 1<<20) <= prof.ServiceTime(1<<30, 4096) {
		t.Fatal("profile ignores IO size")
	}
}

func TestPropertySeekCostSymmetricNonNegative(t *testing.T) {
	prof := ProfileTwin(DefaultConfig(), 9, ProfilerOptions{Buckets: 8, Tries: 3, ProbeSize: 4096})
	f := func(raw int64) bool {
		d := raw % (1000 << 30)
		return prof.SeekCost(d) >= 0 && prof.SeekCost(d) == prof.SeekCost(-d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.NewEngine()
		d := New(eng, DefaultConfig(), sim.NewRNG(5, "replay"))
		rng := sim.NewRNG(6, "offsets")
		var lats []time.Duration
		for i := 0; i < 50; i++ {
			r := read(rng.Int63n(900<<30), 4096)
			r.SubmitTime = eng.Now()
			r.OnComplete = func(r *blockio.Request) { lats = append(lats, r.Latency()) }
			d.Submit(r)
		}
		eng.Run()
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPropertyAgingBoundsStarvation(t *testing.T) {
	// Under a continuous stream of near-head arrivals, no queued IO may
	// starve beyond roughly AgeLimit + one service time — the command
	// aging guarantee the predictors rely on.
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		d := New(eng, cfg, sim.NewRNG(seed, "aging"))
		rng := sim.NewRNG(seed, "stream")
		// Far victim enters first (after a warm-up IO).
		warm := read(100<<30, 4096)
		warm.OnComplete = func(*blockio.Request) {}
		d.Submit(warm)
		victim := read(900<<30, 4096)
		var waited time.Duration
		victim.OnComplete = func(r *blockio.Request) { waited = r.Latency() }
		victim.SubmitTime = eng.Now()
		d.Submit(victim)
		// Continuous near-head stream for 2 seconds.
		tick := eng.NewTicker(3*time.Millisecond, func() {
			if d.QueueLen() > 8 {
				return
			}
			r := read(rng.Int63n(200<<30), 4096)
			r.OnComplete = func(*blockio.Request) {}
			d.Submit(r)
		})
		eng.RunUntil(sim.Time(2 * sim.Second))
		tick.Stop()
		eng.Run()
		// Bound: age limit + a couple of worst-case services.
		return waited > 0 && waited < cfg.AgeLimit+40*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// destageOrder records, via the slot-free hook, the buffered writes the
// spindle destages: each op leaves the head at its end offset, so a head
// position matching a write's end identifies that write. Writes sit at
// distinct whole-GiB offsets so no read can be mistaken for one.
func destageOrder(d *Disk, writes []int64) *[]int {
	var order []int
	d.SetSlotFreeHook(func() {
		for i, off := range writes {
			if d.HeadPos() == off+4096 {
				order = append(order, i)
			}
		}
	})
	return &order
}

func noiselessDisk(name string, slots int) (*sim.Engine, *Disk) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ServiceNoiseStd = 0
	cfg.WriteBufferSlots = slots
	return eng, New(eng, cfg, sim.NewRNG(1, name))
}

func nop(*blockio.Request) {}

func submitWrite(d *Disk, off int64) {
	d.Submit(&blockio.Request{Op: blockio.Write, Offset: off, Size: 4096, OnComplete: nop})
}

func TestDestageFIFOAcrossRingWrap(t *testing.T) {
	// A 4-slot ring: the first write is popped at once (head moves to 1),
	// reads hold the spindle so later writes pile up behind it, and the
	// fifth buffered write lands in slot 0 — the ring wraps. Destage order
	// must still be submit order.
	eng, d := noiselessDisk("wrap", 4)
	writes := []int64{10 << 30, 20 << 30, 30 << 30, 40 << 30, 50 << 30, 60 << 30, 70 << 30}
	order := destageOrder(d, writes)
	submitWrite(d, writes[0]) // destaged at once: head = 1
	d.Submit(&blockio.Request{Op: blockio.Read, Offset: 900 << 30, Size: 4096, OnComplete: nop})
	for _, off := range writes[1:5] {
		submitWrite(d, off)
	}
	if r := d.destage; r.head != 1 || r.n != 4 || r.head+r.n <= len(r.buf) {
		t.Fatalf("ring head=%d n=%d cap=%d, want a wrapped full ring", r.head, r.n, len(r.buf))
	}
	// Drain partway, then refill while the ring is wrapped: a read keeps
	// the spindle busy so the next two writes are buffered mid-drain.
	eng.RunFor(30 * time.Millisecond)
	d.Submit(&blockio.Request{Op: blockio.Read, Offset: 950 << 30, Size: 4096, OnComplete: nop})
	for _, off := range writes[5:] {
		submitWrite(d, off)
	}
	eng.Run()
	if len(*order) != len(writes) {
		t.Fatalf("destaged %v, want all %d writes", *order, len(writes))
	}
	for i, w := range *order {
		if w != i {
			t.Fatalf("destage order %v, want submit order", *order)
		}
	}
	if d.InFlight() != 0 || d.destage.n != 0 {
		t.Fatalf("inflight %d, buffered %d after drain", d.InFlight(), d.destage.n)
	}
}

func TestDestageGrowWithHeadOffsetKeepsFIFO(t *testing.T) {
	// With room for 64, the ring starts at destageRingMin slots. Popping
	// the first write moves head off 0; filling the ring wraps it; the next
	// write forces a grow, which must linearise oldest-first.
	eng, d := noiselessDisk("grow", 64)
	var writes []int64
	for i := 0; i < destageRingMin+2; i++ {
		writes = append(writes, int64(i+1)<<30)
	}
	order := destageOrder(d, writes)
	submitWrite(d, writes[0]) // destaged at once: head = 1
	for _, off := range writes[1 : destageRingMin+1] {
		submitWrite(d, off)
	}
	if r := d.destage; r.head != 1 || r.n != destageRingMin || len(r.buf) != destageRingMin {
		t.Fatalf("before grow: head=%d n=%d cap=%d", r.head, r.n, len(r.buf))
	}
	submitWrite(d, writes[destageRingMin+1])
	if r := d.destage; r.head != 0 || r.n != destageRingMin+1 || len(r.buf) != 2*destageRingMin {
		t.Fatalf("after grow: head=%d n=%d cap=%d, want head 0, cap doubled", r.head, r.n, len(r.buf))
	}
	eng.Run()
	if len(*order) != len(writes) {
		t.Fatalf("destaged %v, want all %d writes", *order, len(writes))
	}
	for i, w := range *order {
		if w != i {
			t.Fatalf("destage order %v, want submit order", *order)
		}
	}
}

func TestDestageRingGrowthCappedAtSlots(t *testing.T) {
	// Growth doubles but never past WriteBufferSlots, even when that is not
	// a power of two.
	_, d := noiselessDisk("cap", 40)
	d.Submit(&blockio.Request{Op: blockio.Read, Offset: 900 << 30, Size: 4096, OnComplete: nop})
	for i := 0; i < 40; i++ {
		submitWrite(d, int64(i+1)<<30)
	}
	if len(d.destage.buf) != 40 || d.destage.n != 40 {
		t.Fatalf("ring cap=%d n=%d, want both 40", len(d.destage.buf), d.destage.n)
	}
}

func TestWriteBufferOverflowHitsSpindle(t *testing.T) {
	// Once the ring holds WriteBufferSlots writes, further writes queue for
	// the spindle like reads and complete only after real service.
	eng, d := noiselessDisk("full", 2)
	d.Submit(&blockio.Request{Op: blockio.Read, Offset: 900 << 30, Size: 4096, OnComplete: nop})
	lat := make([]time.Duration, 4)
	for i := range lat {
		i := i
		w := &blockio.Request{Op: blockio.Write, Offset: int64(i+1) << 30, Size: 4096}
		w.OnComplete = func(r *blockio.Request) { lat[i] = r.Latency() }
		d.Submit(w)
	}
	if d.destage.n != 2 || d.QueueLen() != 2 {
		t.Fatalf("buffered %d, queued %d; want 2 and 2", d.destage.n, d.QueueLen())
	}
	eng.Run()
	for i, l := range lat {
		buffered := i < 2
		if buffered && l != d.Config().WriteAckLatency {
			t.Fatalf("buffered write %d latency %v, want the NVRAM ack %v", i, l, d.Config().WriteAckLatency)
		}
		if !buffered && l < time.Millisecond {
			t.Fatalf("overflow write %d latency %v, want spindle service", i, l)
		}
	}
	// One read, two overflow writes, two destages.
	if d.Served() != 5 || d.InFlight() != 0 {
		t.Fatalf("served %d, inflight %d; want 5 and 0", d.Served(), d.InFlight())
	}
}

func TestNextSinglePassDropAgePick(t *testing.T) {
	// One queue holding cancelled, aged, and near requests. next must drop
	// the cancelled ones in queue order, let the first strictly-oldest
	// aged request preempt SSTF, and keep the survivors' order; with no
	// aged request left it takes the first strictly-nearest.
	eng, d := noiselessDisk("onepass", 0)
	eng.RunFor(100 * time.Millisecond)
	now := eng.Now()
	var dropped []string
	mk := func(name string, off int64, age time.Duration, cancel bool) *blockio.Request {
		r := &blockio.Request{Op: blockio.Read, Offset: off, Size: 4096, DispatchTime: now.Add(-age)}
		r.OnDrop = func(*blockio.Request) { dropped = append(dropped, name) }
		if cancel {
			r.Cancel()
		}
		return r
	}
	d.headPos = 500 << 30
	cA := mk("cA", 499<<30, 90*time.Millisecond, true) // nearest and oldest, but cancelled
	near1 := mk("near1", 501<<30, time.Millisecond, false)
	old1 := mk("old1", 10<<30, 40*time.Millisecond, false)
	cB := mk("cB", 500<<30, 0, true)
	old2 := mk("old2", 20<<30, 40*time.Millisecond, false)   // ties old1: old1 is first
	near2 := mk("near2", 499<<30, 2*time.Millisecond, false) // ties near1: near1 is first
	d.queue = []*blockio.Request{cA, near1, old1, cB, old2, near2}
	d.inflight = len(d.queue)

	want := []*blockio.Request{old1, old2, near1, near2}
	wantQueues := [][]*blockio.Request{
		{near1, old2, near2},
		{near1, near2},
		{near2},
		{},
	}
	for step, w := range want {
		got, destaged := d.next()
		if got != w || destaged {
			t.Fatalf("step %d: next picked %v (destage %v), want %v", step, got, destaged, w)
		}
		if len(d.queue) != len(wantQueues[step]) {
			t.Fatalf("step %d: queue len %d, want %d", step, len(d.queue), len(wantQueues[step]))
		}
		for i, r := range wantQueues[step] {
			if d.queue[i] != r {
				t.Fatalf("step %d: queue order changed at %d", step, i)
			}
		}
	}
	if len(dropped) != 2 || dropped[0] != "cA" || dropped[1] != "cB" {
		t.Fatalf("drops %v, want [cA cB] in queue order", dropped)
	}
	if d.InFlight() != 4 {
		t.Fatalf("inflight %d, want 4 (two drops)", d.InFlight())
	}
}
