// Command mittsim is a single-node storage-stack explorer: it builds one
// SLO-aware stack (disk or SSD, with optional page cache), runs a probe
// workload against configurable noisy-neighbor contention, and prints the
// accept/EBUSY decisions and latency distribution — the smallest possible
// MittOS demo.
//
// Usage:
//
//	mittsim -device disk -noise 4 -deadline 15ms
//	mittsim -device ssd  -noise 2 -noise-size 262144 -deadline 1ms
//	mittsim -device disk -cache 100000 -deadline 200us
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mittos"
	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/noise"
	"mittos/internal/stats"
)

// options are mittsim's flags.
type options struct {
	device             string
	cache              int
	deadline, duration time.Duration
	interval           time.Duration
	streams, noiseSize int
	seed               int64
}

// Flag limits that keep a run's host cost bounded: warming the page cache
// costs about 80 bytes of host memory per cached page, and an SSD contender
// IO costs host time in proportion to its size.
const (
	maxCachePages = 1 << 22 // a 16 GiB cache
	maxNoiseSize  = 64 << 20
)

// check rejects flag values mittsim cannot simulate meaningfully, before
// anything is built.
func (o options) check() error {
	switch {
	case o.device != "disk" && o.device != "ssd":
		return fmt.Errorf("unknown device %q", o.device)
	case o.cache < 0 || o.cache > maxCachePages:
		return fmt.Errorf("-cache %d: want 0 (no cache) to %d pages", o.cache, maxCachePages)
	case o.duration <= 0:
		return fmt.Errorf("-duration %v: want a positive time", o.duration)
	case o.interval <= 0:
		return fmt.Errorf("-interval %v: want a positive probe period", o.interval)
	case o.streams < 0:
		return fmt.Errorf("-noise %d: want 0 or more streams", o.streams)
	case o.noiseSize <= 0 || o.noiseSize > maxNoiseSize:
		return fmt.Errorf("-noise-size %d: want 1 to %d bytes", o.noiseSize, maxNoiseSize)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.device, "device", "disk", "disk | ssd")
	flag.IntVar(&o.cache, "cache", 0, "page-cache size in 4KB pages (0 = none)")
	flag.DurationVar(&o.deadline, "deadline", 15*time.Millisecond, "probe deadline SLO")
	flag.DurationVar(&o.duration, "duration", 30*time.Second, "virtual observation time")
	flag.DurationVar(&o.interval, "interval", 20*time.Millisecond, "probe period")
	flag.IntVar(&o.streams, "noise", 4, "noisy-neighbor contender streams")
	flag.IntVar(&o.noiseSize, "noise-size", 1<<20, "contender IO size in bytes")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "mittsim:", err)
		os.Exit(2)
	}

	eng := mittos.NewEngine()
	cfg := mittos.StackConfig{Mitt: true, CachePages: o.cache, Seed: o.seed}
	var space int64
	if o.device == "disk" {
		cfg.Device = mittos.DeviceDisk
		space = mittos.DefaultDiskConfig().CapacityBytes * 9 / 10
	} else {
		cfg.Device = mittos.DeviceSSD
		space = mittos.DefaultSSDConfig().LogicalBytes() / 2
	}
	stack := mittos.NewStack(eng, cfg)

	// Noise tenant, entering through the stack's SLO-aware entry point.
	sink := &cluster.TargetDevice{T: stack.Target()}
	op := blockio.Read
	if o.device == "ssd" {
		op = blockio.Write
	}
	st := noise.NewSteady(eng, sink, mittos.NewRNG(o.seed, "noise"),
		op, o.noiseSize, o.streams, blockio.ClassBestEffort, 5, 99, space)
	st.Start()

	// Probe tenant.
	rng := mittos.NewRNG(o.seed, "probe")
	accepted := stats.NewSample(0)
	busy := 0
	if o.cache > 0 {
		stack.Cache.Warm(0, o.cache*4096/2)
	}
	eng.NewTicker(o.interval, func() {
		off := rng.Int63n(space - 4096)
		start := eng.Now()
		stack.Read(off, 4096, o.deadline, func(err error) {
			if mittos.IsBusy(err) {
				busy++
				return
			}
			accepted.Add(eng.Now().Sub(start))
		})
	})
	eng.RunFor(o.duration)
	st.Stop()
	eng.RunFor(time.Second)

	total := accepted.N() + busy
	fmt.Printf("device=%s deadline=%v noise=%d×%dB over %v\n",
		o.device, o.deadline, o.streams, o.noiseSize, o.duration)
	fmt.Printf("probes: %d   accepted: %d   EBUSY: %d (%.1f%%)\n",
		total, accepted.N(), busy, 100*float64(busy)/float64(max(total, 1)))
	tb := &stats.Table{Header: []string{"metric", "value"}}
	tb.AddRow("accepted p50", stats.FormatDuration(accepted.Percentile(50)))
	tb.AddRow("accepted p95", stats.FormatDuration(accepted.Percentile(95)))
	tb.AddRow("accepted p99", stats.FormatDuration(accepted.Percentile(99)))
	tb.AddRow("accepted max", stats.FormatDuration(accepted.Max()))
	tb.AddRow("predicted wait now", stats.FormatDuration(stack.PredictWait(space/2, 4096)))
	fmt.Print(tb.String())
}
