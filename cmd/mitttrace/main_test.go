package main

import (
	"math"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		dur, busiest time.Duration
		rerate       float64
		ok           bool
	}{
		{5 * time.Minute, 0, 1, true},
		{2 * time.Minute, 30 * time.Second, 128, true},
		{time.Minute, 0, 0.5, true},
		{time.Minute, 0, 0, false},
		{time.Minute, 0, -1, false},
		{time.Minute, 0, math.NaN(), false},
		{time.Minute, 0, math.Inf(1), false},
		{time.Minute, 0, math.Inf(-1), false},
		{0, 0, 1, false},
		{-time.Second, 0, 1, false},
		{time.Minute, -time.Second, 1, false},
	} {
		if err := checkFlags(tc.dur, tc.busiest, tc.rerate); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %v, %v) = %v, want ok=%v", tc.dur, tc.busiest, tc.rerate, err, tc.ok)
		}
	}
}
