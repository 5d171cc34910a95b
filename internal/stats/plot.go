package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// PlotCDFs renders labelled samples as an ASCII CDF chart: x = latency
// (log scale), y = cumulative probability. Each series gets a marker; the
// paper's latency-CDF figures map directly onto it.
func PlotCDFs(series []struct {
	Name   string
	Sample *Sample
}, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}
	var lo, hi time.Duration
	first := true
	for _, s := range series {
		if s.Sample.N() == 0 {
			continue
		}
		mn, mx := s.Sample.Min(), s.Sample.Max()
		if first || mn < lo {
			lo = mn
		}
		if first || mx > hi {
			hi = mx
		}
		first = false
	}
	if first || lo <= 0 || hi <= lo {
		return "(no data)\n"
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	logLo, logHi := math.Log(float64(lo)), math.Log(float64(hi))
	xOf := func(d time.Duration) int {
		frac := (math.Log(float64(d)) - logLo) / (logHi - logLo)
		x := int(frac * float64(width-1))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		return x
	}
	var legend strings.Builder
	for si, s := range series {
		if s.Sample.N() == 0 {
			continue
		}
		m := markers[si%len(markers)]
		fmt.Fprintf(&legend, "  %c %s", m, s.Name)
		for _, pt := range s.Sample.CDF(width * 2) {
			x := xOf(pt.Latency)
			y := height - 1 - int(pt.P*float64(height-1))
			if y < 0 {
				y = 0
			}
			if grid[y][x] == ' ' {
				grid[y][x] = m
			}
		}
	}
	var b strings.Builder
	for y, row := range grid {
		p := 1 - float64(y)/float64(height-1)
		fmt.Fprintf(&b, "%5.2f |%s|\n", p, string(row))
	}
	b.WriteString("      ")
	b.WriteString(strings.Repeat("-", width+2))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "      %-*s%s (log scale)\n", width-8, FormatDuration(lo), FormatDuration(hi))
	b.WriteString(legend.String())
	b.WriteByte('\n')
	return b.String()
}
