package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// A workload is an ordered list of legs; one pass runs every leg once, on a
// fresh simulation each. A run repeats passes with the same inputs until
// its time is up, so every pass must reproduce the first pass's digests.

// leg is one hermetic simulation run. build is the leg's set-up (timed as a
// set-up sample when setup is set); the runner then times run.
type leg struct {
	name  string
	setup bool
	build func(t *tracer) legRunner
}

type legRunner interface {
	run(t *tracer, window time.Duration)
	result() legOut
}

// setupSampler is a leg whose build times several set-up operations
// itself; its samples replace the whole build time as set-up samples.
type setupSampler interface {
	setupSamples() []time.Duration
}

// legOut is what a leg reports once its run has drained.
type legOut struct {
	issued, finished int
	errors           int   // operations that ended in a non-EBUSY error
	failed           int   // errors plus operations unfinished after the drain
	err              error // a failed correctness check
	events           uint64
	vsec             float64 // virtual seconds simulated
	digest           uint64
	counts           counts
}

// counts are a leg's deterministic per-layer counters, summed over legs.
type counts map[string]float64

func (c counts) add(name string, v uint64) { c[name] += float64(v) }

func (c counts) max(name string, v float64) {
	if v > c[name] {
		c[name] = v
	}
}

func (c counts) merge(o counts) {
	for k, v := range o { //mapiter:sorted
		if k == "sim.max_pending" {
			c.max(k, v)
			continue
		}
		c[k] += v
	}
}

// digest folds simulated results into an FNV-64a hash.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) addString(s string) { d.h.Write([]byte(s)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

// workloadDef names a workload and builds its legs from the seed.
type workloadDef struct {
	name string
	legs func(c *calibration, seed int64) []leg
}

var workloads = []workloadDef{
	{"fleet-get", func(c *calibration, seed int64) []leg { return fleetLegs(c.Fleet, seed, false) }},
	{"fleet-put", func(c *calibration, seed int64) []leg { return fleetLegs(c.Fleet, seed, true) }},
	{"node-ssd", func(c *calibration, seed int64) []leg { return nodeSSDLegs(seed, nodeLegs, nodeLegLen) }},
	{"paper-suite", func(c *calibration, seed int64) []leg { return suiteLegs(seed, c.DevSeed) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// passKind is what one pass measures.
type passKind string

const (
	passTimed    passKind = "timed"    // end-to-end timings, nothing attached
	passProfiled passKind = "profiled" // timed, with a CPU profile of each run phase
	passTraced   passKind = "traced"   // shims, virtual windows, and set-up spans
)

// traceWindow is the virtual length of a traced pass's RunFor windows.
const traceWindow = 100 * time.Millisecond

// passRecord is one pass's measurements. A pass runs in a process of its
// own (see runWorkload), which prints its record as one JSON line.
type passRecord struct {
	Kind       passKind        `json:"kind"`
	Setup      time.Duration   `json:"setup_ns"`      // summed leg set-up
	Setups     []time.Duration `json:"setup_samples"` // the set-up samples
	LegNames   []string        `json:"leg_names"`
	LegRuns    []time.Duration `json:"leg_run_ns"` // each leg's run phase
	LegDigests []uint64        `json:"leg_digests"`
	Digest     uint64          `json:"digest"`
	Alloc      uint64          `json:"alloc_bytes"`
	// Heap is the largest live heap after a forced GC, taken after each
	// set-up and after each drain, outside every timed interval.
	Heap     uint64   `json:"live_heap_bytes"`
	GCs      uint32   `json:"gcs"` // collections the runtime started itself
	Issued   int      `json:"issued"`
	Finished int      `json:"finished"`
	Failed   int      `json:"failed"`
	Events   uint64   `json:"events"`
	VSec     float64  `json:"vsec"`
	Errors   []string `json:"errors,omitempty"`
	Counts   counts   `json:"counts"`
	// CPU is a profiled pass's CPU time per layer, in ns.
	CPU map[string]int64 `json:"cpu_ns,omitempty"`
	// Spans and Windows are a traced pass's span self times and per-window
	// host times.
	Spans   []spanRow `json:"spans,omitempty"`
	Windows spanRow   `json:"windows"`
}

func (p *passRecord) run() time.Duration {
	var d time.Duration
	for _, r := range p.LegRuns {
		d += r
	}
	return d
}

// liveHeap forces a full collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runPass runs every leg once in this process. The tracer it returns is
// non-nil for a traced pass.
func runPass(legs []leg, kind passKind) (passRecord, *tracer) {
	var t *tracer
	window := time.Duration(0)
	if kind == passTraced {
		t, window = newTracer(), traceWindow
	}
	var lp *layerProfile
	if kind == passProfiled {
		lp = newLayerProfile()
	}
	rec := passRecord{Kind: kind, Counts: counts{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var forced uint32
	heap := func() {
		rec.Heap = max(rec.Heap, liveHeap())
		forced++
	}
	pd := newDigest()
	for _, l := range legs {
		t0 := time.Now()
		lr := l.build(t)
		setup := time.Since(t0)
		rec.Setup += setup
		if l.setup {
			if ss, ok := lr.(setupSampler); ok {
				rec.Setups = append(rec.Setups, ss.setupSamples()...)
			} else {
				rec.Setups = append(rec.Setups, setup)
			}
			heap()
		}

		var prof bytes.Buffer
		profiling := lp != nil
		if profiling {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				rec.Errors = append(rec.Errors, fmt.Sprintf("cpu profile: %v", err))
				profiling = false
			}
		}
		t1 := time.Now()
		lr.run(t, window)
		rec.LegRuns = append(rec.LegRuns, time.Since(t1))
		if profiling {
			pprof.StopCPUProfile()
			if err := lp.addProfile(prof.Bytes()); err != nil {
				rec.Errors = append(rec.Errors, err.Error())
			}
		}

		o := lr.result()
		heap()
		rec.Issued += o.issued
		rec.Finished += o.finished
		rec.Failed += o.failed
		rec.Events += o.events
		rec.VSec += o.vsec
		rec.LegNames = append(rec.LegNames, l.name)
		rec.LegDigests = append(rec.LegDigests, o.digest)
		rec.Counts.merge(o.counts)
		pd.add(o.digest)
		if o.err != nil {
			rec.Errors = append(rec.Errors, fmt.Sprintf("leg %s: %v", l.name, o.err))
		}
	}
	runtime.ReadMemStats(&ms1)
	rec.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	rec.GCs = ms1.NumGC - ms0.NumGC - forced
	rec.Digest = pd.sum()
	if lp != nil {
		rec.CPU = lp.ns
	}
	if t != nil {
		rec.Spans = t.rows()
		w := &t.windows
		rec.Windows = spanRow{Name: "window", N: w.n, P50: w.quantile(0.5), P99: w.quantile(0.99)}
	}
	return rec, t
}

// runResult is every pass of one run.
type runResult struct {
	passes []passRecord
	maxRSS int64 // KiB, the largest pass process's peak resident set
}

// runOptions select how a run measures.
type runOptions struct {
	seconds float64
	// traced alternates profiled passes with traced passes; a traced run
	// makes at least one of each.
	traced bool
	chrome string // where the first traced pass writes its Chrome trace
}

// runWorkload repeats passes until the time budget is spent. Each pass runs
// in a fresh process (this binary with -pass), so no pass inherits another
// pass's heap, GC pacing, or warm caches: every pass measures what one
// invocation of the simulator pays, and the passes are independent
// samples.
func runWorkload(name string, seed int64, opt runOptions) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &runResult{}
	start := time.Now()
	for p := 0; ; p++ {
		kind := passTimed
		if opt.traced {
			kind = passProfiled
			if p%2 == 1 {
				kind = passTraced
			}
		}
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-pass", string(kind)}
		if p == 1 && opt.chrome != "" {
			args = append(args, "-chrome", opt.chrome)
		}
		cmd := exec.Command(self, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("pass %d (%s): %w", p, kind, err)
		}
		var rec passRecord
		if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("pass %d (%s): %w", p, kind, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.maxRSS = max(r.maxRSS, ru.Maxrss)
		}
		r.passes = append(r.passes, rec)
		if opt.traced && len(r.passes) < 2 {
			continue
		}
		// Stop before a pass that would end more than a quarter pass past
		// the time budget.
		elapsed := time.Since(start).Seconds()
		mean := elapsed / float64(len(r.passes))
		if elapsed+mean > opt.seconds+mean/4 {
			break
		}
	}
	return r, nil
}

// check returns every failed correctness check: the passes' own, and any
// leg whose digest differs from the first pass's.
func (r *runResult) check() []error {
	var errs []error
	first := r.passes[0]
	for i, p := range r.passes {
		for _, e := range p.Errors {
			errs = append(errs, fmt.Errorf("pass %d: %s", i, e))
		}
		for j, d := range p.LegDigests {
			if j < len(first.LegDigests) && d != first.LegDigests[j] {
				errs = append(errs, fmt.Errorf("pass %d (%s) leg %s: digest %016x differs from the first pass's %016x",
					i, p.Kind, p.LegNames[j], d, first.LegDigests[j]))
			}
		}
	}
	return errs
}

// timed returns the passes the end-to-end metrics come from: all but the
// traced ones.
func (r *runResult) timed() []passRecord {
	var out []passRecord
	for _, p := range r.passes {
		if p.Kind != passTraced {
			out = append(out, p)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e2e computes the end-to-end metrics from the timed passes. Timings are
// medians — each leg's run phase over passes, each set-up sample — so a
// burst of host noise that slows one leg of one pass does not move them.
// Every pass simulates the same requests, so the request rate divides one
// pass's count by the median-based run time.
func (r *runResult) e2e() map[string]float64 {
	ps := r.timed()
	run := 0.0
	for i := range ps[0].LegRuns {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.LegRuns[i].Seconds())
		}
		run += median(xs)
	}
	var allocs, setups []float64
	var heap uint64
	for _, p := range ps {
		allocs = append(allocs, float64(p.Alloc)/(1<<20))
		heap = max(heap, p.Heap)
		for _, s := range p.Setups {
			setups = append(setups, s.Seconds())
		}
	}
	return map[string]float64{
		"setup_s":       median(setups),
		"run_s":         run,
		"sim_req_per_s": float64(ps[0].Finished) / run,
		"alloc_mb":      median(allocs),
		"live_heap_mb":  float64(heap) / (1 << 20),
	}
}
