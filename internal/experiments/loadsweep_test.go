package experiments

import (
	"math"
	"testing"
	"time"
)

func TestCheckSweepRate(t *testing.T) {
	for _, tc := range []struct {
		m  float64
		ok bool
	}{
		{0.2, true},
		{1.5, true},
		{MinSweepRate, true},
		{MaxSweepRate, true},
		{0, false},
		{-1, false},
		{1e-300, false},
		{MinSweepRate / 2, false},
		{MaxSweepRate * 1.0001, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		if err := CheckSweepRate(tc.m); (err == nil) != tc.ok {
			t.Errorf("CheckSweepRate(%v) = %v, want ok=%v", tc.m, err, tc.ok)
		}
	}
}

func TestRunRejectsBadRates(t *testing.T) {
	// Every id validates, so a hostile config fails before any leg runs
	// (loadsweep would otherwise pre-size samples for billions of ops).
	for _, tc := range []struct {
		id    string
		rates []float64
	}{
		{"loadsweep", []float64{math.NaN()}},
		{"loadsweep", []float64{math.Inf(1)}},
		{"loadsweep", []float64{1e-300}},
		{"loadsweep", []float64{0.5, -2}},
		{"loadsweep", []float64{0.5, 1000}},
		{"fig4", []float64{math.NaN()}},
	} {
		res, err := Run(tc.id, RunConfig{Quick: true, Seed: 1, Rates: tc.rates})
		if err == nil || res != nil {
			t.Errorf("Run(%s, rates=%v) = %v, %v; want an error", tc.id, tc.rates, res, err)
		}
	}
}

func TestRunRejectsBadFaults(t *testing.T) {
	// Every id validates the fault schedule too: one that does not parse,
	// or that names a node outside the fleet (0–8 quick, 0–19 full), fails
	// before any leg runs instead of panicking inside failslow.
	for _, tc := range []struct {
		id     string
		quick  bool
		faults string
	}{
		{"failslow", true, "crash node=50 at=1s for=1s"},
		{"failslow", true, "crash node=9 at=1s for=1s"},
		{"failslow", false, "crash node=20 at=1s for=1s"},
		{"failslow", true, "bogus"},
		{"failslow", true, "failslow node=1 at=1s for=1s x=8; crash node=9 at=2s for=1s"},
		{"fig4", true, "crash node=50 at=1s for=1s"},
		{"loadsweep", true, "crash node=9 at=1s for=1s"},
		{"table1", true, "crash node=one at=1s for=1s"},
	} {
		res, err := Run(tc.id, RunConfig{Quick: tc.quick, Seed: 1, Faults: tc.faults})
		if err == nil || res != nil {
			t.Errorf("Run(%s, quick=%v, faults=%q) = %v, %v; want an error", tc.id, tc.quick, tc.faults, res, err)
		}
	}
	for _, tc := range []struct {
		quick  bool
		faults string
	}{
		{true, ""},
		{true, "crash node=8 at=1s for=1s"},
		{true, "failslow node=all at=1s for=1s x=4"},
		{false, "crash node=19 at=1s for=1s"},
	} {
		if err := CheckFaults(tc.faults, tc.quick); err != nil {
			t.Errorf("CheckFaults(%q, quick=%v) = %v, want nil", tc.faults, tc.quick, err)
		}
	}
}

func TestSweepPresizeCapped(t *testing.T) {
	for _, tc := range []struct {
		d, iv time.Duration
		want  int
	}{
		{10 * time.Second, time.Millisecond, 10001},
		{60 * time.Second, 10 * time.Millisecond, 6001},
		{10 * time.Second, time.Microsecond, sweepMaxPresize},
		{10 * time.Second, time.Nanosecond, sweepMaxPresize},
		{math.MaxInt64, time.Nanosecond, sweepMaxPresize},
	} {
		if got := sweepPresize(tc.d, tc.iv); got != tc.want {
			t.Errorf("sweepPresize(%v, %v) = %d, want %d", tc.d, tc.iv, got, tc.want)
		}
	}
}
