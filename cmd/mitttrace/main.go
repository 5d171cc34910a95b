// Command mitttrace synthesizes and characterizes the five enterprise
// block-trace workloads used by the §7.6 accuracy study (DAPPS, DTRS, EXCH,
// LMBE, TPCC).
//
// Usage:
//
//	mitttrace                      # characterize all five profiles
//	mitttrace -name EXCH -dur 2m   # one profile
//	mitttrace -name TPCC -busiest 30s -rerate 128
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/trace"
)

// checkFlags rejects flag values mitttrace cannot honour, before any trace
// is generated.
func checkFlags(dur, busiest time.Duration, rerate float64) error {
	switch {
	case dur <= 0:
		return fmt.Errorf("-dur %v: want a positive length", dur)
	case busiest < 0:
		return fmt.Errorf("-busiest %v: want 0 (whole trace) or a positive window", busiest)
	case !(rerate > 0) || math.IsInf(rerate, 1):
		return fmt.Errorf("-rerate %v: want a finite factor above 0", rerate)
	}
	return nil
}

func main() {
	var (
		name    = flag.String("name", "", "profile name (default: all)")
		dur     = flag.Duration("dur", 5*time.Minute, "synthesized length")
		busiest = flag.Duration("busiest", 0, "extract the busiest window of this length")
		rerate  = flag.Float64("rerate", 1, "arrival-rate compression factor")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := checkFlags(*dur, *busiest, *rerate); err != nil {
		fmt.Fprintln(os.Stderr, "mitttrace:", err)
		os.Exit(2)
	}

	profiles := trace.Profiles(500 << 30)
	if *name != "" {
		p, ok := trace.ProfileByName(*name, 500<<30)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown profile %q\n", *name)
			os.Exit(2)
		}
		profiles = []trace.Profile{p}
	}
	tb := &stats.Table{Header: []string{"trace", "records", "duration", "IOPS",
		"read%", "mean size", "total bytes"}}
	for _, p := range profiles {
		tr := trace.Generate(p, *dur, sim.NewRNG(*seed, p.Name))
		if *busiest > 0 {
			tr = tr.Busiest(*busiest)
		}
		if *rerate != 1 {
			tr = tr.Rerate(*rerate)
		}
		st := tr.Stats()
		tb.AddRow(tr.Name,
			fmt.Sprint(st.Records),
			st.Duration.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", st.IOPS),
			fmt.Sprintf("%.0f", 100*st.ReadFrac),
			fmt.Sprintf("%dKB", st.MeanSize/1024),
			fmt.Sprintf("%dMB", st.TotalSize>>20),
		)
	}
	fmt.Print(tb.String())
}
