package stats

import (
	"strings"
	"testing"
	"time"
)

func TestPlotCDFs(t *testing.T) {
	a := NewSample(0)
	b := NewSample(0)
	for i := 1; i <= 100; i++ {
		a.Add(time.Duration(i) * time.Millisecond)
		b.Add(time.Duration(i) * 2 * time.Millisecond)
	}
	out := PlotCDFs([]struct {
		Name   string
		Sample *Sample
	}{{"fast", a}, {"slow", b}}, 60, 12)
	for _, want := range []string{"*", "+", "fast", "slow", "log scale", "1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
}

func TestPlotCDFsEmpty(t *testing.T) {
	out := PlotCDFs(nil, 60, 12)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
}
