package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/metrics"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/smr"
	"mittos/internal/ssd"
)

var updateAdmission = flag.Bool("update", false, "rewrite testdata/admission.golden from this run")

// admIO is one step of the admission script. Offsets and sizes are
// relative, so one script drives every device shape.
type admIO struct {
	gap      time.Duration
	op       blockio.Op
	u        float64 // offset as a fraction of the target's address range
	units    int     // size in the target's IO units
	deadline time.Duration
	proc     int
	class    blockio.Class
	prio     int
}

// admissionScript returns the seeded IO script every target runs: bursty
// arrivals, a read-heavy mix, deadlines from none through sub-device-latency
// to loose, and a fifth of the IOs in the RealTime class so CFQ bumps
// accepted best-effort IOs.
func admissionScript() []admIO {
	rng := sim.NewRNG(17, "admission-script")
	deadlines := []time.Duration{blockio.NoDeadline, 100 * time.Microsecond,
		2 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond, 60 * time.Millisecond}
	script := make([]admIO, 40)
	for i := range script {
		s := &script[i]
		s.gap = rng.Exp(3 * time.Millisecond)
		s.op = blockio.Read
		if rng.Float64() < 0.2 {
			s.op = blockio.Write
		}
		s.u = rng.Float64()
		s.units = 1
		if rng.Float64() < 0.4 {
			s.units += rng.Intn(3)
		}
		s.deadline = deadlines[rng.Intn(len(deadlines))]
		s.proc = 1 + rng.Intn(4)
		switch c := rng.Float64(); {
		case c < 0.2:
			s.class = blockio.ClassRealTime
		case c < 0.3:
			s.class = blockio.ClassIdle
		default:
			s.class = blockio.ClassBestEffort
		}
		s.prio = rng.Intn(8)
	}
	return script
}

// The four admission modes every Mitt layer supports: enforcement, §7.6
// shadow mode, §7.7 FN/FP injection, and a miscalibrated predictor.
type admMode int

const (
	modeEnforce admMode = iota
	modeShadow
	modeInject
	modeMiscal
)

var admModeNames = [...]string{"enforce", "shadow", "inject", "miscal"}

var allAdmModes = []admMode{modeEnforce, modeShadow, modeInject, modeMiscal}

func admOptions(mode admMode) Options {
	opt := DefaultOptions()
	opt.Shadow = mode == modeShadow
	return opt
}

// admLayer is the admin surface of a Mitt layer the modes configure.
type admLayer interface {
	SetErrorInjection(fnRate, fpRate float64, rng *sim.RNG)
	SetMiscalibration(bias time.Duration, scale float64)
	SetRecorder(rec *metrics.Recorder)
}

// configure applies the mode's injection or miscalibration to a layer and
// attaches the recorder.
func configure(l admLayer, mode admMode, rec *metrics.Recorder) {
	switch mode {
	case modeInject:
		l.SetErrorInjection(0.3, 0.2, sim.NewRNG(5, "admission-inject"))
	case modeMiscal:
		l.SetMiscalibration(time.Millisecond, 1.5)
	}
	l.SetRecorder(rec)
}

// admRig is one target built for one mode.
type admRig struct {
	t     Target
	span  int64 // address range the script's offsets cover
	unit  int   // IO size unit and alignment
	warm  func(eng *sim.Engine)
	check func(off int64, size int, deadline time.Duration) error // addrcheck, when the target has one
	tail  func() string
	// inUse counts the layer's pooled contexts not yet back in their
	// pools; every one is back once the leg has drained.
	inUse func() int
}

type admTarget struct {
	name  string
	modes []admMode
	build func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig
}

var admProfile = disk.ProfileTwin(disk.DefaultConfig(), 42,
	disk.ProfilerOptions{Buckets: 32, Tries: 6, ProbeSize: 4096})

func admDisk(eng *sim.Engine) *disk.Disk {
	return disk.New(eng, disk.DefaultConfig(), sim.NewRNG(11, "admission-disk"))
}

// gateInUse counts a gate's scoring ops and EBUSY replies out of their
// pools.
func gateInUse(g *gate) int { return g.ops.InUse() + g.replies.pool.InUse() }

// mirrorGateInUse adds the SSTF mirror's entries to gateInUse: the disk
// layers MittNoop, MittCFQ and MittDeadline.
func mirrorGateInUse(g *gate, m *sstfMirror) int { return gateInUse(g) + m.entries.InUse() }

func admCounts(a, r uint64) string { return fmt.Sprintf("counts accepted=%d rejected=%d", a, r) }

func admAccuracy(a Accuracy) string {
	return fmt.Sprintf("accuracy tp=%d tn=%d fp=%d fn=%d sumabsdiff=%v",
		a.TruePos, a.TrueNeg, a.FalsePos, a.FalseNeg, a.SumAbsDiff)
}

func newAdmNoop(eng *sim.Engine, mode admMode, rec *metrics.Recorder, naive bool) *MittNoop {
	opt := admOptions(mode)
	opt.Naive = naive
	m := NewMittNoop(eng, iosched.NewNoop(eng, admDisk(eng)), admProfile, opt)
	configure(m, mode, rec)
	return m
}

func noopTarget(name string, naive bool) admTarget {
	return admTarget{name: name, modes: allAdmModes,
		build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
			m := newAdmNoop(eng, mode, rec, naive)
			return admRig{t: m, span: disk.DefaultConfig().CapacityBytes, unit: 4096,
				tail: func() string {
					return admCounts(m.Counts()) + "\n" + admAccuracy(m.Accuracy())
				},
				inUse: func() int { return mirrorGateInUse(&m.gate, m.mirror) }}
		}}
}

func admissionTargets() []admTarget {
	return []admTarget{
		noopTarget("mittnoop", false),
		noopTarget("mittnoop-naive", true),
		{name: "mittcfq", modes: allAdmModes,
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				cfq := iosched.NewCFQ(eng, iosched.DefaultCFQConfig(), admDisk(eng))
				m := NewMittCFQ(eng, cfq, admProfile, admOptions(mode))
				configure(m, mode, rec)
				return admRig{t: m, span: disk.DefaultConfig().CapacityBytes, unit: 4096,
					tail: func() string {
						a, r, c := m.Counts()
						return fmt.Sprintf("%s cancelled=%d\n%s", admCounts(a, r), c, admAccuracy(m.Accuracy()))
					},
					inUse: func() int { return mirrorGateInUse(&m.gate, m.mirror) }}
			}},
		{name: "mittssd", modes: allAdmModes,
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				cfg := ssd.DefaultConfig()
				cfg.Channels, cfg.ChipsPerChannel = 2, 2
				cfg.BlocksPerChip, cfg.PagesPerBlock = 8, 16
				cfg.OverprovisionBlocks = 2
				dev := ssd.New(eng, cfg)
				m := NewMittSSD(eng, dev, admOptions(mode))
				configure(m, mode, rec)
				var erasesBefore uint64
				return admRig{t: m, span: cfg.LogicalBytes(), unit: cfg.PageSize,
					// Write the whole logical space once so the script's
					// writes run the device through garbage collection.
					warm: func(eng *sim.Engine) {
						pages := cfg.LogicalBytes() / int64(cfg.PageSize)
						for p := int64(0); p < pages; p++ {
							m.SubmitSLO(&blockio.Request{Op: blockio.Write,
								Offset: p * int64(cfg.PageSize), Size: cfg.PageSize}, func(error) {})
						}
						eng.Run()
						_, _, erasesBefore = dev.Stats()
					},
					tail: func() string {
						_, _, erases := dev.Stats()
						return fmt.Sprintf("%s gc-erases=%d\n%s", admCounts(m.Counts()),
							erases-erasesBefore, admAccuracy(m.Accuracy()))
					},
					inUse: func() int { return gateInUse(&m.gate) + m.decs.InUse() }}
			}},
		{name: "mittdeadline", modes: []admMode{modeEnforce, modeShadow, modeInject},
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				sched := iosched.NewDeadline(eng, iosched.DefaultDeadlineConfig(), admDisk(eng))
				m := NewMittDeadline(eng, sched, admProfile, admOptions(mode))
				if mode == modeInject {
					m.SetErrorInjection(0.3, 0.2, sim.NewRNG(5, "admission-inject"))
				}
				return admRig{t: m, span: disk.DefaultConfig().CapacityBytes, unit: 4096,
					tail: func() string {
						return admCounts(m.Counts()) + "\n" + admAccuracy(m.Accuracy())
					},
					inUse: func() int { return mirrorGateInUse(&m.gate, m.mirror) }}
			}},
		{name: "mittcache", modes: allAdmModes,
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				d := admDisk(eng)
				nop := iosched.NewNoop(eng, d)
				lower := NewMittNoop(eng, nop, admProfile, admOptions(mode))
				configure(lower, mode, rec)
				ccfg := oscache.DefaultConfig()
				ccfg.CapacityPages = 16
				cache := oscache.New(eng, ccfg, nop)
				m := NewMittCache(eng, cache, lower, 300*time.Microsecond, admOptions(mode))
				if mode == modeMiscal {
					m.SetMiscalibration(time.Millisecond, 1.5)
				}
				m.SetRecorder(rec)
				const pages = 64
				return admRig{t: m, span: pages * 4096, unit: 4096,
					// Every page has been resident once; the 16-page cache
					// keeps only the last, so most misses are contention.
					warm:  func(*sim.Engine) { cache.Warm(0, pages*4096) },
					check: m.AddrCheck,
					tail: func() string {
						a, r := lower.Counts()
						return fmt.Sprintf("%s\nlower %s\n%s", admCounts(m.Counts()), admCounts(a, r),
							admAccuracy(m.Accuracy()))
					},
					inUse: func() int {
						return gateInUse(&m.gate) + m.hits.pool.InUse() + m.misses.InUse() +
							mirrorGateInUse(&lower.gate, lower.mirror)
					}}
			}},
		{name: "mittsmr", modes: allAdmModes,
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				cfg := smr.DefaultConfig()
				cfg.CacheBytes = 64 << 20
				drive := smr.New(eng, cfg, sim.NewRNG(71, "admission-smr"))
				nop := iosched.NewNoop(eng, drive)
				m := NewMittSMR(eng, nop, drive, admProfile, admOptions(mode))
				configure(m.noop, mode, rec)
				return admRig{t: m, span: 900 << 30, unit: 4096,
					// Fill the persistent cache and run until a band clean
					// is in progress: the script arrives mid-clean.
					warm: func(eng *sim.Engine) {
						rng := sim.NewRNG(5, "admission-smr-fill")
						for drive.CacheFill() < cfg.CleanHighWater {
							m.SubmitSLO(&blockio.Request{Op: blockio.Write,
								Offset: rng.Int63n(900<<30) &^ 4095, Size: 1 << 20}, func(error) {})
							eng.RunFor(time.Millisecond)
						}
						for i := 0; i < 1000 && m.CleanRemaining() == 0; i++ {
							eng.RunFor(10 * time.Millisecond)
						}
					},
					tail: func() string {
						return fmt.Sprintf("%s by-clean=%d\n%s", admCounts(m.Counts()),
							m.RejectedByClean(), admAccuracy(m.noop.Accuracy()))
					},
					inUse: func() int { return mirrorGateInUse(&m.noop.gate, m.noop.mirror) }}
			}},
		{name: "throughput", modes: allAdmModes,
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				inner := newAdmNoop(eng, mode, rec, false)
				m := NewThroughputSLO(eng, inner, admOptions(mode))
				m.SetContract(1, 20, 1)
				m.SetContract(2, 40, 2)
				return admRig{t: m, span: disk.DefaultConfig().CapacityBytes, unit: 4096,
					tail: func() string {
						a, r := inner.Counts()
						return fmt.Sprintf("%s\ninner %s\n%s", admCounts(m.Counts()), admCounts(a, r),
							admAccuracy(inner.Accuracy()))
					},
					inUse: func() int { return m.replies.pool.InUse() + mirrorGateInUse(&inner.gate, inner.mirror) }}
			}},
		{name: "vanilla", modes: []admMode{modeEnforce},
			build: func(eng *sim.Engine, mode admMode, rec *metrics.Recorder) admRig {
				v := &Vanilla{Dev: iosched.NewNoop(eng, admDisk(eng))}
				return admRig{t: v, span: disk.DefaultConfig().CapacityBytes, unit: 4096,
					tail:  func() string { return "" },
					inUse: v.ops.pool.InUse}
			}},
	}
}

// admResult is one scripted IO's outcome.
type admResult struct {
	at    sim.Time
	req   *blockio.Request
	check error
	done  sim.Time
	err   error
	fired int
}

// runAdmission drives the script through one target in one mode and renders
// every IO's verdict, predictions, completion and error, then the layer's
// counters, accuracy and admission metrics. Once the leg has drained, every
// pooled context the layer took must be back, or t fails; the rendering
// leaves the counts out.
func runAdmission(t *testing.T, tg admTarget, mode admMode, script []admIO) string {
	eng := sim.NewEngine()
	set := metrics.New(eng, 1, 0)
	rig := tg.build(eng, mode, set.Node(0))
	if rig.warm != nil {
		rig.warm(eng)
	}
	res := make([]admResult, len(script))
	at := eng.Now()
	for i := range script {
		s, r := &script[i], &res[i]
		at = at.Add(s.gap)
		slots := rig.span / int64(rig.unit)
		req := &blockio.Request{ID: uint64(i + 1), Op: s.op,
			Offset: int64(s.u*float64(slots)) * int64(rig.unit), Size: s.units * rig.unit,
			Deadline: s.deadline, Proc: s.proc, Class: s.class, Priority: s.prio}
		if req.End() > rig.span {
			req.Offset = rig.span - int64(req.Size)
		}
		r.req = req
		eng.At(at, func() {
			r.at = eng.Now()
			if rig.check != nil && s.op == blockio.Read {
				r.check = rig.check(req.Offset, req.Size, req.Deadline)
			}
			rig.t.SubmitSLO(req, func(err error) {
				r.done, r.err = eng.Now(), err
				r.fired++
			})
		})
	}
	eng.Run()
	if out := rig.inUse(); out != 0 {
		t.Errorf("%s/%s: %d pooled contexts still out after the drain", tg.name, admModeNames[mode], out)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s/%s\n", tg.name, admModeNames[mode])
	for i, r := range res {
		req := r.req
		fmt.Fprintf(&b, "%2d t=%v %s off=%d size=%d proc=%d %s/%d dl=%v pw=%v ps=%v shadow=%t",
			i, r.at, req.Op, req.Offset, req.Size, req.Proc, req.Class, req.Priority,
			req.Deadline, req.PredictedWait, req.PredictedService, req.ShadowBusy)
		if rig.check != nil && req.Op == blockio.Read {
			fmt.Fprintf(&b, " addrcheck=%v", r.check)
		}
		if r.fired != 1 {
			fmt.Fprintf(&b, " fired=%d\n", r.fired)
			continue
		}
		fmt.Fprintf(&b, " done=%v err=%v\n", r.done, r.err)
	}
	if tail := rig.tail(); tail != "" {
		b.WriteString(tail)
		b.WriteByte('\n')
	}
	sn := set.Snapshot(tg.name)
	for _, c := range sn.Counters {
		fmt.Fprintf(&b, "metric %s/%s=%d\n", c.Resource, c.Counter, c.Value)
	}
	for _, h := range sn.Hists {
		fmt.Fprintf(&b, "hist %s/%s/%s n=%d min=%d mean=%d p50=%d p99=%d max=%d\n",
			h.Resource, h.Kind, h.Op, h.N, h.MinNs, h.MeanNs, h.P50Ns, h.P99Ns, h.MaxNs)
	}
	for _, p := range sn.Predict {
		fmt.Fprintf(&b, "predict %s n=%d mean=%d max=%d bias=%d\n",
			p.Resource, p.N, p.MeanAbsErrNs, p.MaxAbsErrNs, p.BiasNs)
	}
	return b.String()
}

// TestAdmissionGolden pins the admission layer of every Target — MittNoop
// (SSTF and naive), MittCFQ with late cancellation, MittSSD through garbage
// collection, MittDeadline, MittCache's read() and addrcheck() paths,
// MittSMR mid-clean, ThroughputSLO and Vanilla — under enforcement, shadow
// mode, FN/FP injection and miscalibration: per-IO verdicts, predictions,
// completion times and errors, then counters, accuracy and metrics.
// Regenerate with -update after an intended behaviour change.
func TestAdmissionGolden(t *testing.T) {
	script := admissionScript()
	var b strings.Builder
	for _, tg := range admissionTargets() {
		for _, mode := range tg.modes {
			b.WriteString(runAdmission(t, tg, mode, script))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "admission.golden")
	if *updateAdmission {
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
