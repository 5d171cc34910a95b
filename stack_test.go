package mittos

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateStack = flag.Bool("update", false, "rewrite testdata/stack.golden from this run")

// goldenSSDConfig is the small flash geometry the stack tests share.
func goldenSSDConfig() SSDConfig {
	cfg := DefaultSSDConfig()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 16
	cfg.PagesPerBlock = 64
	cfg.OverprovisionBlocks = 4
	return cfg
}

// stackLeg is one stack shape the golden drives.
type stackLeg struct {
	name string
	cfg  StackConfig
}

// stackLegs returns every device layer with and without a page cache, each
// vanilla and with Mitt, then one shadow-mode Mitt leg per device layer.
func stackLegs() []stackLeg {
	devices := []struct {
		name string
		cfg  StackConfig
	}{
		{"noop", StackConfig{Device: DeviceDisk, Scheduler: SchedulerNoop}},
		{"cfq", StackConfig{Device: DeviceDisk, Scheduler: SchedulerCFQ}},
		{"deadline", StackConfig{Device: DeviceDisk, Scheduler: SchedulerDeadline}},
		{"ssd", StackConfig{Device: DeviceSSD, SSDConfig: goldenSSDConfig()}},
	}
	var legs []stackLeg
	for _, d := range devices {
		for _, pages := range []int{0, 512} {
			for _, mitt := range []bool{false, true} {
				cfg := d.cfg
				cfg.CachePages, cfg.Mitt, cfg.Seed = pages, mitt, 1
				name := d.name
				if pages > 0 {
					name += "+cache"
				}
				if mitt {
					name += "/mitt"
				} else {
					name += "/vanilla"
				}
				legs = append(legs, stackLeg{name, cfg})
			}
		}
	}
	shadow := DefaultOptions()
	shadow.Shadow = true
	for _, d := range devices {
		cfg := d.cfg
		cfg.Mitt, cfg.MittOptions, cfg.Seed = true, shadow, 1
		legs = append(legs, stackLeg{d.name + "/shadow", cfg})
	}
	return legs
}

// stackProbe is one probe read's record.
type stackProbe struct {
	at        time.Duration
	off       int64
	deadline  time.Duration
	predicted time.Duration
	req       *Request
	latency   time.Duration
	err       error
	fired     int
}

// runStackLeg drives one stack through 120 seeded IOs: two of every three
// are large contention writes and reads across the device, the third a 4 KB
// probe read into a hot 1 MB range at the next of four deadlines. It
// renders each probe's predicted wait at submit, latency and verdict, then
// the stack's Accuracy and, on cache legs, an addrcheck of an evicted page.
func runStackLeg(leg stackLeg) string {
	eng := NewEngine()
	s := NewStack(eng, leg.cfg)
	rng := NewRNG(23, "stack-golden")

	span := DefaultDiskConfig().CapacityBytes
	bigIO, gap := 1<<20, 15*time.Millisecond
	deadlines := []time.Duration{100 * time.Microsecond, 5 * time.Millisecond,
		20 * time.Millisecond, 50 * time.Millisecond}
	if leg.cfg.Device == DeviceSSD {
		span = leg.cfg.SSDConfig.LogicalBytes()
		bigIO, gap = 4*leg.cfg.SSDConfig.PageSize, 400*time.Microsecond
		deadlines = []time.Duration{50 * time.Microsecond, 300 * time.Microsecond,
			time.Millisecond, 4 * time.Millisecond}
	}
	const hotPages = 256

	var probes []*stackProbe
	at := time.Duration(0)
	for i := 0; i < 120; i++ {
		at += rng.Exp(gap)
		if i%3 != 2 {
			off := rng.Int63n((span-int64(bigIO))/4096) * 4096
			write := rng.Float64() < 0.5
			eng.At(eng.Now().Add(at), func() {
				if write {
					s.Write(off, bigIO, func(error) {})
				} else {
					s.Read(off, bigIO, 0, func(error) {})
				}
			})
			continue
		}
		p := &stackProbe{at: at, off: rng.Int63n(hotPages) * 4096, deadline: deadlines[len(probes)%len(deadlines)]}
		probes = append(probes, p)
		eng.At(eng.Now().Add(at), func() {
			p.predicted = s.PredictWait(p.off, 4096)
			t0 := eng.Now()
			p.req = s.Read(p.off, 4096, p.deadline, func(err error) {
				p.latency, p.err = eng.Now().Sub(t0), err
				p.fired++
			})
		})
	}
	eng.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", leg.name)
	for i, p := range probes {
		fmt.Fprintf(&b, "%2d t=%v off=%d dl=%v pw=%v", i, p.at, p.off, p.deadline, p.predicted)
		if p.req.ShadowBusy {
			b.WriteString(" shadow-busy")
		}
		if p.fired != 1 {
			fmt.Fprintf(&b, " fired=%d\n", p.fired)
			continue
		}
		fmt.Fprintf(&b, " lat=%v %s\n", p.latency, verdict(p.err))
	}
	a := s.Accuracy()
	fmt.Fprintf(&b, "accuracy tp=%d tn=%d fp=%d fn=%d sumabsdiff=%v\n",
		a.TruePos, a.TrueNeg, a.FalsePos, a.FalseNeg, a.SumAbsDiff)
	if s.Cache != nil {
		// Make one page resident and evict it: the addrcheck then meets a
		// page swapped out under memory contention (§4.4).
		const evicted = 900 * 4096
		s.Cache.Warm(evicted, 4096)
		s.Cache.EvictRange(evicted, 4096)
		fmt.Fprintf(&b, "addrcheck evicted dl=%v: %s\n", deadlines[0], verdict(s.AddrCheck(evicted, 4096, deadlines[0])))
		eng.Run()
	}
	return b.String()
}

// verdict renders an IO's outcome: ok, EBUSY with its predicted wait, or
// the error.
func verdict(err error) string {
	var be *BusyError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &be):
		return fmt.Sprintf("busy wait=%v", be.PredictedWait)
	default:
		return "err " + err.Error()
	}
}

// TestStackGolden pins the root Stack end to end: every scheduler and the
// SSD, with and without a page cache, vanilla, Mitt and shadow-mode Mitt,
// under large contention IOs: each probe's predicted wait, latency and
// verdict, the layer's accuracy and the cache's addrcheck. Regenerate with
// -update after an intended behaviour change.
func TestStackGolden(t *testing.T) {
	var b strings.Builder
	for _, leg := range stackLegs() {
		b.WriteString(runStackLeg(leg))
	}
	got := b.String()
	path := filepath.Join("testdata", "stack.golden")
	if *updateStack {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
