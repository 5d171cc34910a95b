package trace

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

func genFor(t *testing.T, name string, dur time.Duration) *Trace {
	t.Helper()
	p, ok := ProfileByName(name, 100<<30)
	if !ok {
		t.Fatalf("unknown profile %s", name)
	}
	return Generate(p, dur, sim.NewRNG(1, name))
}

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range Profiles(100 << 30) {
		tr := Generate(p, 10*time.Second, sim.NewRNG(1, p.Name))
		st := tr.Stats()
		if st.Records == 0 {
			t.Fatalf("%s: empty trace", p.Name)
		}
		// The long-run rate should be in the ballpark of MeanIOPS.
		if st.IOPS < p.MeanIOPS*0.4 || st.IOPS > p.MeanIOPS*2.5 {
			t.Fatalf("%s: IOPS %.1f vs target %.1f", p.Name, st.IOPS, p.MeanIOPS)
		}
		if math.Abs(st.ReadFrac-p.ReadFrac) > 0.1 {
			t.Fatalf("%s: read frac %.2f vs target %.2f", p.Name, st.ReadFrac, p.ReadFrac)
		}
	}
}

func TestProfilesAreDistinct(t *testing.T) {
	// The five workloads must differ meaningfully (that is their entire
	// purpose in §7.6): compare mean sizes and read fractions pairwise.
	stats := map[string]Stats{}
	for _, p := range Profiles(100 << 30) {
		stats[p.Name] = Generate(p, 10*time.Second, sim.NewRNG(1, p.Name)).Stats()
	}
	if !(stats["DTRS"].MeanSize > 4*stats["TPCC"].MeanSize) {
		t.Fatalf("DTRS (%d) should be much larger IOs than TPCC (%d)",
			stats["DTRS"].MeanSize, stats["TPCC"].MeanSize)
	}
	if !(stats["EXCH"].ReadFrac < stats["DTRS"].ReadFrac) {
		t.Fatal("EXCH should be writier than DTRS")
	}
}

func TestRecordsOrderedAndInRange(t *testing.T) {
	tr := genFor(t, "EXCH", 20*time.Second)
	var prev time.Duration
	for _, r := range tr.Records {
		if r.At < prev {
			t.Fatal("records out of order")
		}
		prev = r.At
		if r.Offset < 0 || r.Offset+int64(r.Size) > 100<<30 {
			t.Fatalf("record out of range: %+v", r)
		}
		if r.Offset%4096 != 0 {
			t.Fatalf("unaligned offset %d", r.Offset)
		}
	}
}

func TestBusiestWindow(t *testing.T) {
	tr := genFor(t, "EXCH", 60*time.Second)
	busy := tr.Busiest(5 * time.Second)
	if len(busy.Records) == 0 {
		t.Fatal("empty busiest window")
	}
	if busy.Records[0].At != 0 {
		t.Fatal("busiest window not rebased")
	}
	last := busy.Records[len(busy.Records)-1].At
	if last >= 5*time.Second {
		t.Fatalf("window spans %v > 5s", last)
	}
	// It must be at least as dense as the average.
	avgRate := float64(len(tr.Records)) / 60
	busyRate := float64(len(busy.Records)) / 5
	if busyRate < avgRate {
		t.Fatalf("busiest rate %.1f < average %.1f", busyRate, avgRate)
	}
}

func TestBusiestEmpty(t *testing.T) {
	tr := &Trace{Name: "empty"}
	if got := tr.Busiest(time.Second); len(got.Records) != 0 {
		t.Fatal("busiest of empty trace not empty")
	}
}

func TestRerate(t *testing.T) {
	tr := genFor(t, "TPCC", 10*time.Second)
	fast := tr.Rerate(128)
	if len(fast.Records) != len(tr.Records) {
		t.Fatal("rerate changed record count")
	}
	origDur := tr.Records[len(tr.Records)-1].At
	fastDur := fast.Records[len(fast.Records)-1].At
	ratio := float64(origDur) / float64(fastDur)
	if ratio < 127 || ratio > 129 {
		t.Fatalf("rerate ratio %.1f, want 128", ratio)
	}
}

func TestRerateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Trace{}).Rerate(0)
}

func TestClampFitsCapacity(t *testing.T) {
	tr := genFor(t, "LMBE", 10*time.Second)
	small := tr.Clamp(1 << 30)
	for _, r := range small.Records {
		if r.Offset < 0 || r.Offset+int64(r.Size) > 1<<30 {
			t.Fatalf("clamped record out of range: %+v", r)
		}
	}
}

func TestReplayerIssuesAllInOrder(t *testing.T) {
	eng := sim.NewEngine()
	tr := genFor(t, "DAPPS", 5*time.Second)
	var got []Record
	rep := NewReplayer(eng, tr, func(rec Record) { got = append(got, rec) })
	rep.Start()
	eng.Run()
	if len(got) != len(tr.Records) {
		t.Fatalf("replayed %d of %d", len(got), len(tr.Records))
	}
	if rep.Issued() != len(tr.Records) {
		t.Fatalf("Issued = %d", rep.Issued())
	}
	for i := range got {
		if got[i] != tr.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// startClosures is how Replayer.Start used to schedule a trace: one closure
// per record, each capturing its own record. The pre-bound replayer must
// fire exactly as it did.
func startClosures(eng *sim.Engine, tr *Trace, submit func(Record)) {
	for _, rec := range tr.Records {
		rec := rec
		eng.After(rec.At, func() { submit(rec) })
	}
}

// replayLog replays tr through start on a fresh engine beside unrelated
// events posted at the same instants, some before start and some after,
// plus a same-time event that every fifth submission posts, and logs every
// firing with its virtual time.
func replayLog(tr *Trace, start func(eng *sim.Engine, submit func(Record))) []string {
	eng := sim.NewEngine()
	var log []string
	mark := func(tag string) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s", eng.Now(), tag)) }
	}
	for ms := 0; ms < 60; ms += 7 {
		eng.After(time.Duration(ms)*time.Millisecond, mark("before"))
	}
	n := 0
	start(eng, func(rec Record) {
		log = append(log, fmt.Sprintf("%v %+v", eng.Now(), rec))
		if n++; n%5 == 0 {
			eng.After(0, mark("posted by a submit"))
		}
	})
	for ms := 3; ms < 60; ms += 5 {
		eng.After(time.Duration(ms)*time.Millisecond, mark("after"))
	}
	eng.Run()
	return log
}

func TestReplayerMatchesClosurePerRecord(t *testing.T) {
	// Runs of four records share each millisecond, so same-time order is
	// what the comparison pins; the generated and re-rated traces add the
	// order of real workloads.
	ties := &Trace{Name: "ties"}
	for i := 0; i < 200; i++ {
		ties.Records = append(ties.Records, Record{At: time.Duration(i/4) * time.Millisecond,
			Op: blockio.Read, Offset: int64(i) << 12, Size: 4096})
	}
	dapps := genFor(t, "DAPPS", 5*time.Second)
	for _, tr := range []*Trace{ties, dapps, dapps.Rerate(128)} {
		want := replayLog(tr, func(eng *sim.Engine, submit func(Record)) { startClosures(eng, tr, submit) })
		got := replayLog(tr, func(eng *sim.Engine, submit func(Record)) { NewReplayer(eng, tr, submit).Start() })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the replayer fired %d events, the closure per record %d, in a different order",
				tr.Name, len(got), len(want))
		}
	}
}

func TestReplayerRejectsOutOfOrderTrace(t *testing.T) {
	tr := &Trace{Name: "unsorted", Records: []Record{
		{At: time.Millisecond, Op: blockio.Read, Size: 4096},
		{At: 3 * time.Millisecond, Op: blockio.Read, Size: 4096},
		{At: 2 * time.Millisecond, Op: blockio.Read, Size: 4096},
	}}
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted a trace whose records are out of order")
		}
		if eng.Pending() != 0 {
			t.Fatalf("Start scheduled %d events before rejecting the trace", eng.Pending())
		}
	}()
	NewReplayer(eng, tr, func(Record) {}).Start()
}

func TestGenerateDeterministic(t *testing.T) {
	a := genFor(t, "TPCC", 5*time.Second)
	b := genFor(t, "TPCC", 5*time.Second)
	if len(a.Records) != len(b.Records) {
		t.Fatal("nondeterministic generation")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("nondeterministic record")
		}
	}
}

func TestGenerateInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Profile{Name: "bad"}, time.Second, sim.NewRNG(1, "bad"))
}

func TestStatsEmptyTrace(t *testing.T) {
	var tr Trace
	st := tr.Stats()
	if st.Records != 0 || st.IOPS != 0 {
		t.Fatal("empty stats not zero")
	}
}

func TestPropertyClampAlwaysInRange(t *testing.T) {
	f := func(offs []int64, capRaw uint32) bool {
		capacity := int64(capRaw)%(10<<30) + (1 << 20)
		tr := &Trace{}
		for i, o := range offs {
			tr.Records = append(tr.Records, Record{
				At: time.Duration(i) * time.Millisecond, Op: blockio.Read,
				Offset: o, Size: 4096,
			})
		}
		c := tr.Clamp(capacity)
		for _, r := range c.Records {
			if r.Offset < 0 || r.Offset+int64(r.Size) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
