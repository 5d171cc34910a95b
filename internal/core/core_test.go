package core

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

func TestBusyErrorUnwrapsToErrBusy(t *testing.T) {
	err := &BusyError{PredictedWait: 20 * time.Millisecond}
	if !errors.Is(err, blockio.ErrBusy) {
		t.Fatal("BusyError does not unwrap to ErrBusy")
	}
	if !IsBusy(err) {
		t.Fatal("IsBusy(BusyError) = false")
	}
	if IsBusy(errors.New("other")) {
		t.Fatal("IsBusy(other) = true")
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestAccuracyRates(t *testing.T) {
	a := Accuracy{TruePos: 10, TrueNeg: 80, FalsePos: 4, FalseNeg: 6}
	if a.Total() != 100 {
		t.Fatalf("Total = %d", a.Total())
	}
	if got := a.FalsePosRate(); got != 0.04 {
		t.Fatalf("FalsePosRate = %v", got)
	}
	if got := a.FalseNegRate(); got != 0.06 {
		t.Fatalf("FalseNegRate = %v", got)
	}
	if got := a.InaccuracyRate(); got != 0.10 {
		t.Fatalf("InaccuracyRate = %v", got)
	}
	var empty Accuracy
	if empty.FalsePosRate() != 0 || empty.FalseNegRate() != 0 ||
		empty.InaccuracyRate() != 0 || empty.MeanAbsDiff() != 0 {
		t.Fatal("empty accuracy should be all-zero")
	}
}

func TestGateObserve(t *testing.T) {
	d := gate{thop: time.Millisecond}
	deadline := 10 * time.Millisecond
	// busy verdict + actual violation = TP
	d.observe(true, 20*time.Millisecond, 20*time.Millisecond, deadline)
	// busy verdict + actual OK = FP
	d.observe(true, 20*time.Millisecond, 5*time.Millisecond, deadline)
	// accept verdict + violation = FN
	d.observe(false, time.Millisecond, 30*time.Millisecond, deadline)
	// accept verdict + OK = TN
	d.observe(false, time.Millisecond, 2*time.Millisecond, deadline)
	a := d.acc
	if a.TruePos != 1 || a.FalsePos != 1 || a.FalseNeg != 1 || a.TrueNeg != 1 {
		t.Fatalf("accuracy matrix = %+v", a)
	}
	if a.MeanAbsDiff() == 0 {
		t.Fatal("MeanAbsDiff not accumulated")
	}
}

func TestGateInjection(t *testing.T) {
	rng := sim.NewRNG(1, "inj")
	d := waitGate{injFN: 1.0, injRNG: rng}
	if d.rejects(true) {
		t.Fatal("100% false-negative injection should suppress rejection")
	}
	d = waitGate{injFP: 1.0, injRNG: rng}
	if !d.rejects(false) {
		t.Fatal("100% false-positive injection should force rejection")
	}
	d = waitGate{}
	if !d.rejects(true) || d.rejects(false) {
		t.Fatal("no injection should be identity")
	}
}

func TestGateThreshold(t *testing.T) {
	d := gate{thop: 300 * time.Microsecond}
	if d.threshold(20*time.Millisecond) != 20*time.Millisecond+300*time.Microsecond {
		t.Fatal("threshold must add Thop")
	}
}

func TestGateAdjust(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name       string
		bias       time.Duration
		scale      float64
		wait, want time.Duration
	}{
		{"calibrated", 0, 0, 10 * ms, 10 * ms},
		{"scaled", 0, 1.5, 10 * ms, 15 * ms},
		{"biased", 2 * ms, 0, 10 * ms, 12 * ms},
		{"scaled and biased", 2 * ms, 0.5, 10 * ms, 7 * ms},
		{"negative bias floors at zero", -20 * ms, 0, 10 * ms, 0},
		{"scale 1e9 stays in range", 0, 1e9, 10 * ms, 10 * ms * 1e9},
		{"scale 1e12 saturates", 0, 1e12, 10 * ms, maxWait},
		{"scale 1e18 saturates", 0, 1e18, 10 * ms, maxWait},
		{"saturated product plus bias", time.Hour, 1e18, 10 * ms, maxWait},
		{"bias near the maximum saturates", maxWait - ms, 0, 10 * ms, maxWait},
		{"zero wait scaled stays zero", 0, 1e18, 0, 0},
	} {
		g := gate{misBias: tc.bias, misScale: tc.scale}
		if got := g.adjust(tc.wait); got != tc.want {
			t.Errorf("%s: adjust(%v) with bias %v scale %g = %v, want %v",
				tc.name, tc.wait, tc.bias, tc.scale, got, tc.want)
		}
	}
}

func TestVanillaPassthrough(t *testing.T) {
	eng := sim.NewEngine()
	dev := &stubDevice{eng: eng, delay: time.Millisecond}
	v := &Vanilla{Dev: dev}
	var got error = errors.New("sentinel")
	r := &blockio.Request{Op: blockio.Read, Offset: 0, Size: 4096,
		Deadline: time.Nanosecond} // deadline must be ignored
	v.SubmitSLO(r, func(err error) { got = err })
	eng.Run()
	if got != nil {
		t.Fatalf("vanilla returned %v", got)
	}
}

// TestPlainOpSize pins the plain completion wrapper at 32 bytes: an
// overloaded open-loop Base fleet holds one per in-flight IO, so a larger
// wrapper shows up directly in a fleet run's allocation.
func TestPlainOpSize(t *testing.T) {
	if n := unsafe.Sizeof(plainOp{}); n != 32 {
		t.Fatalf("plainOp is %d bytes; want 32", n)
	}
}

func TestClampDur(t *testing.T) {
	if clampDur(10, 0, 5) != 5 || clampDur(-10, 0, 5) != 0 || clampDur(3, 0, 5) != 3 {
		t.Fatal("clampDur broken")
	}
}

// stubDevice completes after a fixed delay.
type stubDevice struct {
	eng      *sim.Engine
	delay    time.Duration
	inflight int
}

func (s *stubDevice) Submit(req *blockio.Request) {
	s.inflight++
	req.DispatchTime = s.eng.Now()
	s.eng.Schedule(s.delay, func() {
		s.inflight--
		req.CompleteTime = s.eng.Now()
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	})
}
func (s *stubDevice) InFlight() int { return s.inflight }
