package core

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
)

type dlRig struct {
	eng  *sim.Engine
	disk *disk.Disk
	mitt *MittDeadline
	ids  blockio.IDGen
}

func newDLRig(t *testing.T, opt Options) *dlRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := disk.DefaultConfig()
	d := disk.New(eng, cfg, sim.NewRNG(81, t.Name()))
	sched := iosched.NewDeadline(eng, iosched.DefaultDeadlineConfig(), d)
	prof := disk.ProfileTwin(cfg, 42, disk.ProfilerOptions{Buckets: 16, Tries: 4, ProbeSize: 4096})
	return &dlRig{eng: eng, disk: d, mitt: NewMittDeadline(eng, sched, prof, opt)}
}

func (r *dlRig) read(off int64, deadline time.Duration, cb func(error)) {
	req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Read, Offset: off,
		Size: 4096, Deadline: deadline}
	r.mitt.SubmitSLO(req, cb)
}

func TestMittDeadlineIdleAccepts(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	var err error = blockio.ErrBusy
	r.read(100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("idle read: %v", err)
	}
}

func TestMittDeadlineBusyRejects(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	for i := 0; i < 15; i++ {
		r.read(int64(i+1)*(40<<30), 0, func(error) {})
	}
	var err error
	r.read(900<<30, 10*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("busy read: %v, want EBUSY", err)
	}
	acc, rej := r.mitt.Counts()
	if rej != 1 || acc != 15 {
		t.Fatalf("counts = %d/%d", acc, rej)
	}
}

func TestMittDeadlineQueuedWritesCharged(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	// Queue a pile of writes beyond the NVRAM (writes over the buffer go
	// to the spindle); the read's predicted wait must include their share.
	for i := 0; i < 40; i++ {
		req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Write,
			Offset: int64(i+1) * (20 << 30), Size: 1 << 20}
		r.mitt.SubmitSLO(req, func(error) {})
	}
	if w := r.mitt.PredictWait(); w == 0 {
		t.Fatal("write backlog invisible to the read predictor")
	}
	r.eng.Run()
}

func TestMittDeadlinePredictionDrains(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		r.read(int64(i+1)*(50<<30), 0, func(error) {})
	}
	if w := r.mitt.PredictWait(); w < 10*time.Millisecond {
		t.Fatalf("queued wait %v too small", w)
	}
	r.eng.Run()
	if w := r.mitt.PredictWait(); w > 5*time.Millisecond {
		t.Fatalf("post-drain wait %v; accumulator leaked", w)
	}
}

func TestMittDeadlineShadowAccuracy(t *testing.T) {
	opt := DefaultOptions()
	opt.Shadow = true
	r := newDLRig(t, opt)
	rng := sim.NewRNG(9, "offs")
	r.eng.NewTicker(25*time.Millisecond, func() {
		r.read(rng.Int63n(900<<30), 25*time.Millisecond, func(error) {})
	})
	r.eng.NewTicker(300*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			r.read(rng.Int63n(900<<30), 25*time.Millisecond, func(error) {})
		}
	})
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	acc := r.mitt.Accuracy()
	if acc.Total() < 300 {
		t.Fatalf("verdicted %d", acc.Total())
	}
	if acc.InaccuracyRate() > 0.12 {
		t.Fatalf("MittDeadline inaccuracy %.1f%% (FP %.1f%%, FN %.1f%%)",
			100*acc.InaccuracyRate(), 100*acc.FalsePosRate(), 100*acc.FalseNegRate())
	}
}

// TestMittDeadlineRevokedIOsReleased revokes queued reads — the tied-request
// cancellation path — and requires the deadline scheduler to hand each one
// back: OnDrop fires or the pooled request is recycled, the owner's
// callback never runs, and MittDeadline releases the predicted service it
// charged, so an idle disk predicts no wait.
func TestMittDeadlineRevokedIOsReleased(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	var pool blockio.Pool
	var reqs []*blockio.Request
	completed, dropped := 0, 0
	for i := 0; i < 8; i++ {
		req := pool.Get()
		req.ID, req.Op, req.Size = r.ids.Next(), blockio.Read, 4096
		req.Offset = int64(i+1) * (100 << 30)
		req.Deadline = time.Second
		if i%2 == 0 {
			req.OnDrop = func(*blockio.Request) { dropped++ }
		} else {
			req.AutoFree = true
		}
		r.mitt.SubmitSLO(req, func(err error) {
			if err != nil {
				t.Errorf("surviving read: %v", err)
			}
			completed++
		})
		reqs = append(reqs, req)
	}
	// The first read is already at the device; revoke six still queued.
	gens := make([]uint32, len(reqs))
	for i := 1; i < 7; i++ {
		gens[i] = reqs[i].Gen()
		reqs[i].Cancel()
	}
	r.eng.Run()
	if completed != 2 {
		t.Fatalf("%d callbacks ran, want the 2 surviving reads", completed)
	}
	if dropped != 3 {
		t.Fatalf("OnDrop fired %d times, want 3", dropped)
	}
	for i := 1; i < 7; i += 2 {
		if reqs[i].Gen() == gens[i] {
			t.Fatalf("revoked AutoFree read %d was not recycled", i)
		}
	}
	if w := r.mitt.PredictWait(); w != 0 {
		t.Fatalf("idle disk predicts %v of wait; revoked reads still charged", w)
	}
}
