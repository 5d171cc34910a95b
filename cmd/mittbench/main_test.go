package main

import (
	"reflect"
	"testing"
)

func TestParseRates(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		ok   bool
	}{
		{"", nil, true},
		{"0.5,0.9,1.1", []float64{0.5, 0.9, 1.1}, true},
		{" 0.01 , 3 ", []float64{0.01, 3}, true},
		{"NaN", nil, false},
		{"Inf", nil, false},
		{"-Inf", nil, false},
		{"1e400", nil, false},
		{"1e-300", nil, false},
		{"0", nil, false},
		{"-1", nil, false},
		{"0.5,4", nil, false},
		{"0.5,", nil, false},
		{"abc", nil, false},
	} {
		got, err := parseRates(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseRates(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRates(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
