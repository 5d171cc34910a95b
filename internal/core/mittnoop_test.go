package core

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// noopRig wires engine → noop scheduler → disk, with a profiled MittNoop.
type noopRig struct {
	eng  *sim.Engine
	disk *disk.Disk
	nop  *iosched.Noop
	mitt *MittNoop
	ids  blockio.IDGen
}

func newNoopRig(t *testing.T, opt Options) *noopRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := disk.DefaultConfig()
	d := disk.New(eng, cfg, sim.NewRNG(11, t.Name()))
	nop := iosched.NewNoop(eng, d)
	prof := disk.ProfileTwin(cfg, 42, disk.ProfilerOptions{Buckets: 32, Tries: 6, ProbeSize: 4096})
	return &noopRig{eng: eng, disk: d, nop: nop, mitt: NewMittNoop(eng, nop, prof, opt)}
}

func (r *noopRig) read(off int64, deadline time.Duration, cb func(error)) *blockio.Request {
	req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Read, Offset: off,
		Size: 4096, Deadline: deadline}
	r.mitt.SubmitSLO(req, cb)
	return req
}

func TestMittNoopIdleDiskAccepts(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	var err error = blockio.ErrBusy
	r.read(100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("idle disk rejected: %v", err)
	}
	if acc, rej := r.mitt.Counts(); acc != 1 || rej != 0 {
		t.Fatalf("counts = %d/%d", acc, rej)
	}
}

func TestMittNoopBusyDiskRejectsFast(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	// Pile up enough reads to push the predicted wait past 20ms.
	for i := 0; i < 10; i++ {
		r.read(int64(i)*(80<<30), 0, func(error) {})
	}
	start := r.eng.Now()
	var err error
	var rejectedAt sim.Time
	r.read(500<<30, 20*time.Millisecond, func(e error) { err = e; rejectedAt = r.eng.Now() })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("expected EBUSY, got %v", err)
	}
	if rejectedAt.Sub(start) > time.Millisecond {
		t.Fatalf("EBUSY took %v; must be instant (<5µs per §3.3)", rejectedAt.Sub(start))
	}
	var be *BusyError
	if !asBusy(err, &be) || be.PredictedWait < 20*time.Millisecond {
		t.Fatalf("BusyError wait = %v, want > deadline", be.PredictedWait)
	}
}

func asBusy(err error, out **BusyError) bool {
	be, ok := err.(*BusyError)
	if ok {
		*out = be
	}
	return ok
}

func TestMittNoopNoDeadlinePassesThrough(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	for i := 0; i < 20; i++ {
		r.read(int64(i)*(40<<30), 0, func(error) {})
	}
	done := 0
	r.read(900<<30, 0, func(e error) {
		if e != nil {
			t.Fatalf("SLO-less IO got %v", e)
		}
		done++
	})
	r.eng.Run()
	if done != 1 {
		t.Fatal("SLO-less IO did not complete")
	}
}

func TestMittNoopRejectedIONeverReachesDisk(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		r.read(int64(i)*(80<<30), 0, func(error) {})
	}
	served := r.disk.Served
	var err error
	r.read(500<<30, time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("expected EBUSY, got %v", err)
	}
	if r.disk.Served() != 10 {
		t.Fatalf("disk served %d IOs, want 10 (rejected IO must not queue)", r.disk.Served())
	}
	_ = served
}

func TestMittNoopPredictionTracksQueue(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	if w := r.mitt.PredictWait(); w != 0 {
		t.Fatalf("idle wait = %v", w)
	}
	r.read(100<<30, 0, func(error) {})
	r.read(500<<30, 0, func(error) {})
	w := r.mitt.PredictWait()
	if w < 5*time.Millisecond {
		t.Fatalf("wait after 2 random reads = %v, want several ms", w)
	}
	r.eng.Run()
	if w2 := r.mitt.PredictWait(); w2 != 0 {
		t.Fatalf("wait after drain = %v", w2)
	}
}

// TestMittNoopRevokedIOsReleased revokes the reads still in the noop
// dispatch queue, whose owner recycles each one from OnDrop, and requires
// MittNoop to forget them: the SSTF mirror drops their entries and every
// op comes back. Otherwise a revoked read's entry outlives it, and once
// the request is reused it no longer reads as cancelled, so the idle disk
// predicts a wait and turns an SLO read away.
func TestMittNoopRevokedIOsReleased(t *testing.T) {
	for _, naive := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Naive = naive
		r := newNoopRig(t, opt)
		var pool blockio.Pool
		completed, dropped := 0, 0
		submit := func(off int64, deadline time.Duration, onDone func(error)) *blockio.Request {
			req := pool.Get()
			req.ID, req.Op, req.Offset, req.Size = r.ids.Next(), blockio.Read, off, 4096
			req.Deadline = deadline
			req.OnDrop = func(q *blockio.Request) { dropped++; q.Release() }
			r.mitt.SubmitSLO(req, func(err error) {
				completed++
				onDone(err)
				req.Release()
			})
			return req
		}
		const n = 40
		var reqs []*blockio.Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, submit(int64(i+1)*(20<<30), 0, func(error) {}))
		}
		queued := r.nop.QueueLen()
		if queued == 0 {
			t.Fatalf("naive=%v: no read left in the noop queue to revoke", naive)
		}
		for _, req := range reqs[n-queued:] {
			req.Cancel()
		}
		r.eng.Run()
		if completed != n-queued || dropped != queued {
			t.Fatalf("naive=%v: %d completed and %d dropped, want %d and %d",
				naive, completed, dropped, n-queued, queued)
		}
		if got := len(r.mitt.mirror.pending); got != 0 {
			t.Errorf("naive=%v: mirror keeps %d entries of revoked reads", naive, got)
		}
		if w := r.mitt.PredictWait(); w != 0 {
			t.Errorf("naive=%v: idle disk predicts %v of wait", naive, w)
		}
		if out := r.mitt.ops.InUse(); out != 0 {
			t.Errorf("naive=%v: %d of %d ops still out of the pool", naive, out, n)
		}
		// Reuse the recycled requests, then ask the idle disk for a read
		// with a tight SLO.
		for i := 0; i < 10; i++ {
			submit(int64(i+1)*(30<<30), 0, func(error) {})
		}
		r.eng.Run()
		if w := r.mitt.PredictWait(); w != 0 {
			t.Errorf("naive=%v: idle disk predicts %v of wait after reuse", naive, w)
		}
		var err error = blockio.ErrBusy
		submit(100<<30, 15*time.Millisecond, func(e error) { err = e })
		r.eng.Run()
		if err != nil {
			t.Fatalf("naive=%v: idle disk rejected a 15ms read: %v", naive, err)
		}
	}
}

func TestMittNoopCalibrationKeepsPredictionsAccurate(t *testing.T) {
	// Shadow-mode accuracy under a bursty open-loop workload shaped like
	// the §7.6 trace replays (probes with idle gaps plus periodic bursts):
	// mean |actual−predicted| wait error must stay under the paper's 3ms
	// and the FP+FN rate must stay in the low single digits.
	opt := DefaultOptions()
	opt.Shadow = true
	r := newNoopRig(t, opt)
	// Deadline at ≈p95 of this workload's latency, as the paper prescribes.
	const deadline = 20 * time.Millisecond
	rng := sim.NewRNG(9, "offsets")
	r.eng.NewTicker(25*time.Millisecond, func() {
		r.read(rng.Int63n(900<<30), deadline, func(error) {})
	})
	r.eng.NewTicker(300*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			r.read(rng.Int63n(900<<30), deadline, func(error) {})
		}
	})
	r.eng.RunUntil(sim.Time(12 * sim.Second))
	acc := r.mitt.Accuracy()
	if acc.Total() < 400 {
		t.Fatalf("verdicted %d IOs, want ≥ 400", acc.Total())
	}
	if acc.MeanAbsDiff() > 3*time.Millisecond {
		t.Fatalf("mean abs prediction error %v > 3ms", acc.MeanAbsDiff())
	}
	if acc.InaccuracyRate() > 0.04 {
		t.Fatalf("inaccuracy %.2f%% too high", 100*acc.InaccuracyRate())
	}
}

func TestMittNoopSaturatedQueueErrorBounded(t *testing.T) {
	// Under a permanently backlogged closed loop (worst case for SSTF
	// position prediction — future arrivals keep jumping ahead) the error
	// may grow, but must stay bounded near one seek time.
	opt := DefaultOptions()
	opt.Shadow = true
	r := newNoopRig(t, opt)
	rng := sim.NewRNG(9, "offsets")
	var issue func(i int)
	issue = func(i int) {
		if i == 0 {
			return
		}
		r.read(rng.Int63n(900<<30), 15*time.Millisecond, func(error) { issue(i - 1) })
	}
	for k := 0; k < 4; k++ {
		issue(100)
	}
	r.eng.Run()
	acc := r.mitt.Accuracy()
	if acc.MeanAbsDiff() > 12*time.Millisecond {
		t.Fatalf("saturated-queue mean abs error %v > 12ms", acc.MeanAbsDiff())
	}
}

func TestMittNoopPrecisionAblation(t *testing.T) {
	// The naive FIFO TnextFree predictor (no SSTF modeling) must be
	// visibly worse — the §7.6 "without our precision improvements"
	// comparison.
	run := func(precise bool) time.Duration {
		opt := DefaultOptions()
		opt.Shadow = true
		opt.Naive = !precise
		opt.Calibrate = precise
		r := newNoopRig(t, opt)
		rng := sim.NewRNG(9, "offsets")
		var issue func(i int)
		issue = func(i int) {
			if i == 0 {
				return
			}
			r.read(rng.Int63n(900<<30), 15*time.Millisecond, func(error) { issue(i - 1) })
		}
		for k := 0; k < 4; k++ {
			issue(150)
		}
		r.eng.Run()
		return r.mitt.Accuracy().MeanAbsDiff()
	}
	with := run(true)
	without := run(false)
	if without <= with {
		t.Fatalf("precision ablation: precise=%v naive=%v; expected naive worse", with, without)
	}
}

func TestMittNoopShadowModeNeverRejects(t *testing.T) {
	opt := DefaultOptions()
	opt.Shadow = true
	r := newNoopRig(t, opt)
	for i := 0; i < 10; i++ {
		r.read(int64(i)*(80<<30), 0, func(error) {})
	}
	var err error = blockio.ErrBusy
	req := r.read(500<<30, time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("shadow mode rejected: %v", err)
	}
	if !req.ShadowBusy {
		t.Fatal("shadow verdict not recorded on the descriptor")
	}
}

func TestMittNoopErrorInjectionFalseNegative(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	r.mitt.SetErrorInjection(1.0, 0, sim.NewRNG(3, "inj"))
	for i := 0; i < 10; i++ {
		r.read(int64(i)*(80<<30), 0, func(error) {})
	}
	var err error = blockio.ErrBusy
	r.read(500<<30, time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("100%% FN injection still rejected: %v", err)
	}
}

func TestMittNoopErrorInjectionFalsePositive(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	r.mitt.SetErrorInjection(0, 1.0, sim.NewRNG(3, "inj"))
	var err error
	r.read(100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("100%% FP injection accepted an idle-disk IO: %v", err)
	}
}

func TestMittNoopTailCutUnderNoise(t *testing.T) {
	// The headline behaviour: with a noisy neighbor, deadline-carrying
	// reads either finish fast or get EBUSY fast — the wait-tail is gone.
	mk := func(useSLO bool) (*stats.Sample, int) {
		opt := DefaultOptions()
		r := newNoopRig(t, opt)
		rng := sim.NewRNG(17, "noise-offsets")
		// Noisy neighbor: a burst of ten 1MB reads every 200ms.
		r.eng.NewTicker(200*time.Millisecond, func() {
			for i := 0; i < 10; i++ {
				req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Read,
					Offset: rng.Int63n(900 << 30), Size: 1 << 20, Proc: 99}
				r.mitt.SubmitSLO(req, func(error) {})
			}
		})
		lat := stats.NewSample(0)
		busy := 0
		deadline := time.Duration(0)
		if useSLO {
			deadline = 15 * time.Millisecond
		}
		probe := func() {
			start := r.eng.Now()
			req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Read,
				Offset: rng.Int63n(900 << 30), Size: 4096, Deadline: deadline}
			r.mitt.SubmitSLO(req, func(e error) {
				if IsBusy(e) {
					busy++
					return
				}
				lat.Add(r.eng.Now().Sub(start))
			})
		}
		r.eng.NewTicker(20*time.Millisecond, probe)
		r.eng.RunUntil(sim.Time(3 * sim.Second))
		return lat, busy
	}
	base, baseBusy := mk(false)
	mitt, mittBusy := mk(true)
	if baseBusy != 0 {
		t.Fatal("no-SLO run saw EBUSY")
	}
	if mittBusy == 0 {
		t.Fatal("SLO run never rejected under noise")
	}
	if mitt.Percentile(99) >= base.Percentile(99) {
		t.Fatalf("MittNoop p99 %v not better than Base %v",
			mitt.Percentile(99), base.Percentile(99))
	}
	// Accepted IOs should essentially never blow through the deadline by a
	// wide margin (small FN tail allowed).
	if frac := mitt.FractionAbove(40 * time.Millisecond); frac > 0.02 {
		t.Fatalf("%.1f%% of accepted IOs exceeded 40ms", 100*frac)
	}
}

func TestProfileStalenessDetection(t *testing.T) {
	// §8.1: "hardware performance can degrade over time ... latency
	// profiles must be recollected; a sampling runtime method can be used
	// to catch a significant deviation." Degrade the disk 1.6× mid-run:
	// the calibration residual crosses the staleness threshold; after
	// re-profiling the degraded device, it settles again.
	r := newNoopRig(t, DefaultOptions())
	rng := sim.NewRNG(23, "stale")
	probe := func(n int) {
		for i := 0; i < n; i++ {
			r.read(rng.Int63n(900<<30), 0, func(error) {})
			r.eng.Run()
		}
	}
	probe(100)
	if r.mitt.ProfileStale() {
		t.Fatalf("fresh profile flagged stale (drift %v)", r.mitt.ProfileDrift())
	}
	// The drive ages.
	r.disk.SetDegradation(1.6)
	probe(100)
	if !r.mitt.ProfileStale() {
		t.Fatalf("degraded device not detected (drift %v)", r.mitt.ProfileDrift())
	}
	// Recollect the profile against the aged device (a degraded twin).
	cfg := disk.DefaultConfig()
	cfg.SeekBase = time.Duration(1.6 * float64(cfg.SeekBase))
	cfg.SeekMax = time.Duration(1.6 * float64(cfg.SeekMax))
	cfg.TransferPerKB = time.Duration(1.6 * float64(cfg.TransferPerKB))
	cfg.SeqCost = time.Duration(1.6 * float64(cfg.SeqCost))
	fresh := disk.ProfileTwin(cfg, 43, disk.ProfilerOptions{Buckets: 32, Tries: 6, ProbeSize: 4096})
	r.mitt.Reprofile(fresh)
	probe(100)
	if r.mitt.ProfileStale() {
		t.Fatalf("re-profiled predictor still stale (drift %v)", r.mitt.ProfileDrift())
	}
}

func TestDegradationInvalidPanics(t *testing.T) {
	r := newNoopRig(t, DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.disk.SetDegradation(0)
}
