package noise

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// countingDevice completes IOs after a fixed delay and counts them.
type countingDevice struct {
	eng      *sim.Engine
	delay    time.Duration
	count    int
	inflight int
}

func (d *countingDevice) Submit(req *blockio.Request) {
	d.count++
	d.inflight++
	d.eng.Schedule(d.delay, func() {
		d.inflight--
		req.CompleteTime = d.eng.Now()
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	})
}
func (d *countingDevice) InFlight() int { return d.inflight }

func TestBurstyEpisodesOccur(t *testing.T) {
	eng := sim.NewEngine()
	dev := &countingDevice{eng: eng, delay: 5 * time.Millisecond}
	cfg := DefaultDiskBursty(100<<30, 99)
	cfg.MeanInterarrival = 500 * time.Millisecond
	b := NewBursty(eng, cfg, dev, sim.NewRNG(1, "bursty"))
	b.Start()
	eng.RunUntil(sim.Time(20 * sim.Second))
	eps := b.Episodes()
	if len(eps) < 10 {
		t.Fatalf("episodes = %d over 20s with 500ms mean gap", len(eps))
	}
	if dev.count == 0 {
		t.Fatal("no contender IOs issued")
	}
	for _, e := range eps {
		if e.Duration < cfg.EpisodeMin || e.Duration > cfg.EpisodeCap {
			t.Fatalf("episode duration %v outside [%v,%v]", e.Duration, cfg.EpisodeMin, cfg.EpisodeCap)
		}
		if e.Streams < 1 || e.Streams > cfg.MaxStreams {
			t.Fatalf("episode streams %d", e.Streams)
		}
	}
}

func TestBurstyBusyFractionCalibration(t *testing.T) {
	// Figure 3g calibration: each node busy a low-single-digit percent of
	// the time.
	eng := sim.NewEngine()
	dev := &countingDevice{eng: eng, delay: 5 * time.Millisecond}
	b := NewBursty(eng, DefaultDiskBursty(100<<30, 99), dev, sim.NewRNG(7, "frac"))
	b.Start()
	busyTicks, ticks := 0, 0
	eng.NewTicker(100*time.Millisecond, func() {
		ticks++
		if b.Busy() {
			busyTicks++
		}
	})
	eng.RunUntil(sim.Time(20 * 60 * sim.Second)) // 20 virtual minutes
	frac := float64(busyTicks) / float64(ticks)
	if frac < 0.005 || frac > 0.08 {
		t.Fatalf("busy fraction %.3f outside the §6-calibrated band [0.5%%, 8%%]", frac)
	}
}

func TestBurstyStop(t *testing.T) {
	eng := sim.NewEngine()
	dev := &countingDevice{eng: eng, delay: time.Millisecond}
	cfg := DefaultDiskBursty(100<<30, 99)
	cfg.MeanInterarrival = 100 * time.Millisecond
	b := NewBursty(eng, cfg, dev, sim.NewRNG(2, "stop"))
	b.Start()
	eng.RunUntil(sim.Time(2 * sim.Second))
	b.Stop()
	eng.Run() // must terminate: no endless rescheduling
	if eng.Pending() != 0 {
		t.Fatalf("pending events after stop: %d", eng.Pending())
	}
}

func TestSteadyRunsUntilStopped(t *testing.T) {
	eng := sim.NewEngine()
	dev := &countingDevice{eng: eng, delay: 2 * time.Millisecond}
	s := NewSteady(eng, dev, sim.NewRNG(3, "steady"),
		blockio.Read, 4096, 4, blockio.ClassBestEffort, 4, 99, 100<<30)
	s.Start()
	eng.RunUntil(sim.Time(sim.Second))
	if dev.count < 1000 {
		t.Fatalf("steady 4-stream injector issued %d IOs in 1s, want ~2000", dev.count)
	}
	s.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatal("steady injector did not drain after Stop")
	}
	// Double Start is a no-op while running.
	s.Start()
	s.Stop()
}

func TestRotatingMovesAcrossDevices(t *testing.T) {
	eng := sim.NewEngine()
	devs := []*countingDevice{
		{eng: eng, delay: 2 * time.Millisecond},
		{eng: eng, delay: 2 * time.Millisecond},
		{eng: eng, delay: 2 * time.Millisecond},
	}
	ifaces := []blockio.Device{devs[0], devs[1], devs[2]}
	r := NewRotating(eng, ifaces, time.Second, 2, 1<<20, 100<<30, sim.NewRNG(4, "rot"))
	r.Start()
	// During the first second only device 0 sees IOs.
	eng.RunUntil(sim.Time(900 * time.Millisecond))
	if devs[0].count == 0 || devs[1].count != 0 || devs[2].count != 0 {
		t.Fatalf("first epoch counts: %d/%d/%d", devs[0].count, devs[1].count, devs[2].count)
	}
	if r.BusyNode() != 0 {
		t.Fatalf("BusyNode = %d", r.BusyNode())
	}
	// After rotation, device 1 gets contention.
	eng.RunUntil(sim.Time(1900 * time.Millisecond))
	if devs[1].count == 0 {
		t.Fatal("rotation did not move to device 1")
	}
	if r.BusyNode() != 1 {
		t.Fatalf("BusyNode = %d after one rotation", r.BusyNode())
	}
	before0 := devs[0].count
	eng.RunUntil(sim.Time(2900 * time.Millisecond))
	if devs[0].count > before0+2 {
		t.Fatalf("device 0 kept receiving noise after its epoch: %d → %d", before0, devs[0].count)
	}
	r.Stop()
	eng.Run()
}

func TestRotatingPanicsWithoutDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRotating(sim.NewEngine(), nil, time.Second, 1, 4096, 1<<30, sim.NewRNG(1, "x"))
}
