// Package trace provides block-level IO traces: a record/replay format plus
// synthetic generators for the five production Windows-server workloads the
// paper replays in its §7.6 accuracy study (DAPPS, DTRS, EXCH, LMBE, TPCC,
// from the SNIA IOTTA repository / Kavalanekar et al., IISWC'08).
//
// The original traces are not redistributable, so each generator synthesizes
// a stream with that workload's published character — read/write mix, size
// mix, sequentiality, locality skew, arrival burstiness. What the §7.6
// experiment needs is five *differently shaped* stressors for the
// predictors, not the original bytes; DESIGN.md documents this substitution.
package trace

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// Record is one trace entry.
type Record struct {
	At     time.Duration // offset from trace start
	Op     blockio.Op
	Offset int64
	Size   int
}

// Trace is an ordered sequence of records.
type Trace struct {
	Name    string
	Records []Record
}

// Stats summarizes a trace.
type Stats struct {
	Records   int
	Duration  time.Duration
	IOPS      float64
	ReadFrac  float64
	MeanSize  int
	TotalSize int64
}

// Stats computes the summary.
func (t *Trace) Stats() Stats {
	s := Stats{Records: len(t.Records)}
	if len(t.Records) == 0 {
		return s
	}
	reads := 0
	for _, r := range t.Records {
		if r.Op == blockio.Read {
			reads++
		}
		s.TotalSize += int64(r.Size)
	}
	s.Duration = t.Records[len(t.Records)-1].At
	if s.Duration > 0 {
		s.IOPS = float64(len(t.Records)) / s.Duration.Seconds()
	}
	s.ReadFrac = float64(reads) / float64(len(t.Records))
	s.MeanSize = int(s.TotalSize / int64(len(t.Records)))
	return s
}

// Busiest extracts the window of the given length with the most records —
// the paper "choose[s] the busiest 5 minutes" of each trace. Timestamps are
// rebased to the window start.
func (t *Trace) Busiest(window time.Duration) *Trace {
	if len(t.Records) == 0 || window <= 0 {
		return &Trace{Name: t.Name}
	}
	best, bestCount := 0, 0
	j := 0
	for i := range t.Records {
		for j < len(t.Records) && t.Records[j].At < t.Records[i].At+window {
			j++
		}
		if j-i > bestCount {
			best, bestCount = i, j-i
		}
	}
	out := &Trace{Name: t.Name + "-busiest", Records: make([]Record, bestCount)}
	base := t.Records[best].At
	for i, r := range t.Records[best : best+bestCount] {
		r.At -= base
		out.Records[i] = r
	}
	return out
}

// Rerate compresses inter-arrival times by `factor` (the paper re-rates
// disk traces 128× for the 128-chip SSD test).
func (t *Trace) Rerate(factor float64) *Trace {
	if factor <= 0 {
		panic("trace: Rerate factor must be positive")
	}
	out := &Trace{Name: fmt.Sprintf("%s-x%g", t.Name, factor), Records: make([]Record, len(t.Records))}
	for i, r := range t.Records {
		r.At = time.Duration(float64(r.At) / factor)
		out.Records[i] = r
	}
	return out
}

// Clamp rewrites offsets/sizes to fit a device of the given capacity.
func (t *Trace) Clamp(capacity int64) *Trace {
	out := &Trace{Name: t.Name, Records: make([]Record, len(t.Records))}
	for i, r := range t.Records {
		if int64(r.Size) > capacity {
			r.Size = int(capacity / 2)
		}
		span := capacity - int64(r.Size)
		if span <= 0 {
			span = 1
		}
		r.Offset %= span
		if r.Offset < 0 {
			r.Offset += span
		}
		r.Offset &^= 4095
		out.Records[i] = r
	}
	return out
}

// Profile shapes a synthetic workload generator.
type Profile struct {
	Name     string
	ReadFrac float64
	// Sizes is a weighted size mix.
	Sizes []SizeWeight
	// SeqProb is the probability that an IO continues the previous one
	// sequentially (run-length geometric).
	SeqProb float64
	// HotTheta is the Zipf skew over the address space (0 = uniform).
	HotTheta float64
	// MeanIOPS is the long-run arrival rate.
	MeanIOPS float64
	// BurstDuty and BurstFactor shape on/off burstiness: during a burst
	// (fraction BurstDuty of the time) the rate is multiplied by
	// BurstFactor, and scaled down off-burst to preserve the mean.
	BurstDuty   float64
	BurstFactor float64
	// AddrSpace is the device range the workload touches.
	AddrSpace int64
}

// SizeWeight pairs an IO size with a selection weight.
type SizeWeight struct {
	Size   int
	Weight float64
}

// Profiles returns the five §7.6 workload profiles, shaped after the
// published characterizations of the production Windows-server traces.
func Profiles(addrSpace int64) []Profile {
	return []Profile{
		{
			// DAPPS: display-ads platform payload server — read-heavy,
			// small-to-medium random IOs, moderately bursty.
			Name: "DAPPS", ReadFrac: 0.85,
			Sizes:   []SizeWeight{{4 << 10, 0.45}, {8 << 10, 0.30}, {32 << 10, 0.20}, {64 << 10, 0.05}},
			SeqProb: 0.15, HotTheta: 0.9, MeanIOPS: 120,
			BurstDuty: 0.15, BurstFactor: 5, AddrSpace: addrSpace,
		},
		{
			// DTRS: developer-tools release server — large sequential
			// reads (file downloads) with long runs.
			Name: "DTRS", ReadFrac: 0.95,
			Sizes:   []SizeWeight{{64 << 10, 0.50}, {256 << 10, 0.35}, {1 << 20, 0.15}},
			SeqProb: 0.75, HotTheta: 0.6, MeanIOPS: 40,
			BurstDuty: 0.25, BurstFactor: 3, AddrSpace: addrSpace,
		},
		{
			// EXCH: Microsoft Exchange mail store — mixed read/write,
			// 8–32KB random, highly bursty.
			Name: "EXCH", ReadFrac: 0.60,
			Sizes:   []SizeWeight{{8 << 10, 0.55}, {16 << 10, 0.25}, {32 << 10, 0.20}},
			SeqProb: 0.05, HotTheta: 0.95, MeanIOPS: 180,
			BurstDuty: 0.10, BurstFactor: 8, AddrSpace: addrSpace,
		},
		{
			// LMBE: Live Maps back end — tile reads, large sequential plus
			// random, sustained high throughput.
			Name: "LMBE", ReadFrac: 0.90,
			Sizes:   []SizeWeight{{16 << 10, 0.40}, {64 << 10, 0.40}, {256 << 10, 0.20}},
			SeqProb: 0.45, HotTheta: 0.8, MeanIOPS: 150,
			BurstDuty: 0.30, BurstFactor: 3, AddrSpace: addrSpace,
		},
		{
			// TPCC: OLTP — steady 8KB random with a 2:1 read:write mix.
			Name: "TPCC", ReadFrac: 0.65,
			Sizes:   []SizeWeight{{8 << 10, 0.90}, {16 << 10, 0.10}},
			SeqProb: 0.02, HotTheta: 0.99, MeanIOPS: 250,
			BurstDuty: 0.05, BurstFactor: 2, AddrSpace: addrSpace,
		},
	}
}

// ProfileByName finds one of the five profiles.
func ProfileByName(name string, addrSpace int64) (Profile, bool) {
	for _, p := range Profiles(addrSpace) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate synthesizes `duration` worth of trace from the profile.
func Generate(p Profile, duration time.Duration, rng *sim.RNG) *Trace {
	if p.MeanIOPS <= 0 || p.AddrSpace <= 0 {
		panic("trace: profile needs MeanIOPS and AddrSpace")
	}
	out := &Trace{Name: p.Name}
	var zipf *sim.Zipf
	const extents = 1 << 16
	if p.HotTheta > 0 && p.HotTheta < 1 {
		zipf = sim.NewZipf(rng, extents, p.HotTheta)
	}
	// Burst-modulated Poisson arrivals: offRate keeps the long-run mean.
	burstRate := p.MeanIOPS * p.BurstFactor
	offRate := p.MeanIOPS
	if p.BurstDuty > 0 && p.BurstDuty < 1 && p.BurstFactor > 1 {
		offRate = p.MeanIOPS * (1 - p.BurstDuty*p.BurstFactor) / (1 - p.BurstDuty)
		if offRate < 1 {
			offRate = 1
		}
	}
	const burstWindow = 500 * time.Millisecond
	now := time.Duration(0)
	var lastEnd int64
	for now < duration {
		inBurst := rng.Bool(p.BurstDuty)
		rate := offRate
		if inBurst {
			rate = burstRate
		}
		windowEnd := now + burstWindow
		for now < windowEnd && now < duration {
			gap := rng.Exp(time.Duration(float64(time.Second) / rate))
			now += gap
			if now >= duration {
				break
			}
			size := pickSize(p.Sizes, rng)
			var off int64
			if rng.Bool(p.SeqProb) && lastEnd+int64(size) < p.AddrSpace {
				off = lastEnd
			} else if zipf != nil {
				extent := zipf.Next()
				extSize := p.AddrSpace / extents
				off = extent*extSize + rng.Int63n(maxI64(extSize-int64(size), 1))
			} else {
				off = rng.Int63n(maxI64(p.AddrSpace-int64(size), 1))
			}
			off &^= 4095
			op := blockio.Write
			if rng.Bool(p.ReadFrac) {
				op = blockio.Read
			}
			out.Records = append(out.Records, Record{At: now, Op: op, Offset: off, Size: size})
			lastEnd = off + int64(size)
		}
		if now < windowEnd {
			now = windowEnd
		}
	}
	return out
}

func pickSize(sizes []SizeWeight, rng *sim.RNG) int {
	if len(sizes) == 0 {
		return 4096
	}
	total := 0.0
	for _, s := range sizes {
		total += s.Weight
	}
	x := rng.Float64() * total
	for _, s := range sizes {
		x -= s.Weight
		if x <= 0 {
			return s.Size
		}
	}
	return sizes[len(sizes)-1].Size
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Replayer issues a trace open-loop against a submit function in virtual
// time. The submit function owns deadline tagging and completion handling.
type Replayer struct {
	eng   *sim.Engine
	trace *Trace
	// Submit is invoked for each record at its timestamp.
	Submit func(rec Record)
	issued int
	fireFn func() // pre-bound r.fire
}

// NewReplayer builds a replayer.
func NewReplayer(eng *sim.Engine, tr *Trace, submit func(Record)) *Replayer {
	r := &Replayer{eng: eng, trace: tr, Submit: submit}
	r.fireFn = r.fire
	return r
}

// Start schedules every record, once: one event per record at its
// timestamp, all posting the same pre-bound callback, which submits the
// next record not yet issued. The engine fires events in time order and
// same-time events in post order, so the k-th event to fire submits record
// k exactly when the records are sorted by At, as Generate and every
// transform leave them. Start panics on a trace that is not.
func (r *Replayer) Start() {
	recs := r.trace.Records
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			panic(fmt.Sprintf("trace: %s: record %d at %v precedes record %d at %v",
				r.trace.Name, i, recs[i].At, i-1, recs[i-1].At))
		}
	}
	for i := range recs {
		r.eng.After(recs[i].At, r.fireFn)
	}
}

// fire submits the next record.
func (r *Replayer) fire() {
	rec := r.trace.Records[r.issued]
	r.issued++
	r.Submit(rec)
}

// Issued returns how many records have fired so far.
func (r *Replayer) Issued() int { return r.issued }
