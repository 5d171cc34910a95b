package iosched

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/sim"
)

func newDeadlineRig(svc time.Duration) (*sim.Engine, *slowDevice, *DeadlineSched) {
	eng := sim.NewEngine()
	dev := &slowDevice{eng: eng, svc: svc}
	return eng, dev, NewDeadline(eng, DefaultDeadlineConfig(), dev)
}

func dlReq(op blockio.Op, off int64) *blockio.Request {
	r := &blockio.Request{Op: op, Offset: off, Size: 4096, Proc: 1}
	r.OnComplete = func(*blockio.Request) {}
	return r
}

func TestDeadlineSortedBatching(t *testing.T) {
	eng, dev, d := newDeadlineRig(time.Millisecond)
	// First request departs immediately; the rest dispatch in offset order.
	d.Submit(dlReq(blockio.Read, 100<<20))
	for _, off := range []int64{500 << 20, 200 << 20, 400 << 20, 300 << 20} {
		d.Submit(dlReq(blockio.Read, off))
	}
	eng.Run()
	got := offsets(dev.order)
	want := []int64{100 << 20, 200 << 20, 300 << 20, 400 << 20, 500 << 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want sorted %v", got, want)
		}
	}
}

func TestDeadlineReadsPreferredOverWrites(t *testing.T) {
	eng, dev, d := newDeadlineRig(time.Millisecond)
	d.Submit(dlReq(blockio.Read, 1<<20)) // occupies the device
	d.Submit(dlReq(blockio.Write, 2<<20))
	d.Submit(dlReq(blockio.Read, 3<<20))
	eng.Run()
	if dev.order[1].Op != blockio.Read {
		t.Fatalf("write dispatched before queued read: %v", offsets(dev.order))
	}
}

func TestDeadlineWritesNotStarvedForever(t *testing.T) {
	eng := sim.NewEngine()
	dev := &slowDevice{eng: eng, svc: time.Millisecond}
	cfg := DefaultDeadlineConfig()
	cfg.FifoBatch = 2
	cfg.WritesStarved = 2
	d := NewDeadline(eng, cfg, dev)
	// Interleave: continuous reads, one write.
	w := dlReq(blockio.Write, 900<<20)
	d.Submit(dlReq(blockio.Read, 1<<20))
	d.Submit(w)
	for i := 2; i < 14; i++ {
		d.Submit(dlReq(blockio.Read, int64(i)<<20))
	}
	eng.Run()
	pos := -1
	for i, r := range dev.order {
		if r == w {
			pos = i
		}
	}
	if pos == -1 {
		t.Fatal("write never served")
	}
	if pos == len(dev.order)-1 {
		t.Fatal("write served dead last; starvation bound inert")
	}
}

func TestDeadlineExpiredReadPreemptsElevator(t *testing.T) {
	eng := sim.NewEngine()
	dev := &slowDevice{eng: eng, svc: 30 * time.Millisecond}
	cfg := DefaultDeadlineConfig()
	cfg.ReadExpire = 50 * time.Millisecond
	cfg.FifoBatch = 4
	d := NewDeadline(eng, cfg, dev)
	d.Submit(dlReq(blockio.Read, 500<<20)) // in service; head ends at 500MB
	far := dlReq(blockio.Read, 1<<20)      // far behind the head
	d.Submit(far)
	// A stream of near-head arrivals would normally keep winning the
	// elevator...
	stop := false
	i := 0
	var feed func()
	feed = func() {
		if stop {
			return
		}
		i++
		d.Submit(dlReq(blockio.Read, (500+int64(i))<<20))
		eng.Schedule(25*time.Millisecond, feed)
	}
	eng.Schedule(time.Millisecond, feed)
	var servedAt sim.Time
	far.OnComplete = func(*blockio.Request) {
		servedAt = eng.Now()
		stop = true
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	if servedAt == 0 {
		t.Fatal("far request never served")
	}
	// ...but FIFO expiry guarantees service within ~expire + a batch.
	if servedAt.Duration() > 400*time.Millisecond {
		t.Fatalf("far request served at %v; expiry did not preempt", servedAt)
	}
}

func TestDeadlineCanceledDropped(t *testing.T) {
	eng, dev, d := newDeadlineRig(time.Millisecond)
	var hooked, terminal int
	d.SetDropHook(func(*blockio.Request) { hooked++ })
	d.Submit(dlReq(blockio.Read, 1<<20))
	victim := dlReq(blockio.Read, 2<<20)
	victim.OnDrop = func(*blockio.Request) { terminal++ }
	d.Submit(victim)
	victim.Cancel()
	eng.Run()
	if len(dev.order) != 1 {
		t.Fatalf("device saw %d IOs; canceled not dropped", len(dev.order))
	}
	if hooked != 1 || terminal != 1 {
		t.Fatalf("drop hook ran %d times and OnDrop %d; want each once", hooked, terminal)
	}
	if d.InFlight() != 0 {
		t.Fatalf("InFlight = %d", d.InFlight())
	}
}

func TestDeadlineOverDisk(t *testing.T) {
	eng := sim.NewEngine()
	dsk := disk.New(eng, disk.DefaultConfig(), sim.NewRNG(13, "dl-disk"))
	d := NewDeadline(eng, DefaultDeadlineConfig(), dsk)
	rng := sim.NewRNG(14, "offs")
	done := 0
	for i := 0; i < 50; i++ {
		r := dlReq(blockio.Read, rng.Int63n(900<<30))
		r.OnComplete = func(*blockio.Request) { done++ }
		d.Submit(r)
	}
	eng.Run()
	if done != 50 {
		t.Fatalf("completed %d of 50", done)
	}
	if d.Dispatched() != 50 {
		t.Fatalf("dispatched %d", d.Dispatched())
	}
}
