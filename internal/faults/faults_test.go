package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mittos/internal/sim"
)

// recInjector records every injector call with the virtual time it fired.
type recInjector struct {
	eng   *sim.Engine
	calls []string
}

func (r *recInjector) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf("%v ", r.eng.Now())+fmt.Sprintf(format, args...))
}

func (r *recInjector) FailSlow(node int, factor float64) {
	r.log("failslow node=%d x=%g", node, factor)
}
func (r *recInjector) SetIOErrorRate(node int, rate float64) {
	r.log("eio node=%d rate=%g", node, rate)
}
func (r *recInjector) Crash(node int)  { r.log("crash node=%d", node) }
func (r *recInjector) Revive(node int) { r.log("revive node=%d", node) }
func (r *recInjector) NetDegrade(extra, jitter time.Duration) {
	r.log("netslow add=%v jitter=%v", extra, jitter)
}
func (r *recInjector) NetRestore() { r.log("netrestore") }
func (r *recInjector) Miscalibrate(node int, bias time.Duration, scale float64) {
	r.log("miscal node=%d bias=%v scale=%g", node, bias, scale)
}
func (r *recInjector) CachePressure(node int, frac float64) {
	r.log("cachedrop node=%d frac=%g", node, frac)
}

func TestScheduleFiresApplyAndRestore(t *testing.T) {
	eng := sim.NewEngine()
	inj := &recInjector{eng: eng}
	s := &Schedule{}
	s.Add(Event{Kind: FailSlow, Node: 1, At: 2 * time.Second, For: 3 * time.Second, Factor: 8})
	s.Add(Event{Kind: IOErrors, Node: 1, At: 2 * time.Second, For: 3 * time.Second, Factor: 0.02})
	s.Add(Event{Kind: Crash, Node: 2, At: 4 * time.Second, For: 2 * time.Second})
	s.Add(Event{Kind: NetDegrade, At: 1 * time.Second, For: 1 * time.Second,
		Extra: 200 * time.Microsecond, Jitter: 50 * time.Microsecond})
	s.Add(Event{Kind: Miscalibrate, Node: 3, At: 5 * time.Second, Extra: 2 * time.Millisecond, Scale: 1.5})
	s.Add(Event{Kind: CachePressure, Node: 0, At: 3 * time.Second, Factor: 0.5})
	s.Start(eng, inj)
	eng.Run()

	want := []string{
		"1s netslow add=200µs jitter=50µs",
		"2s failslow node=1 x=8",
		"2s eio node=1 rate=0.02",
		"2s netrestore",
		"3s cachedrop node=0 frac=0.5",
		"4s crash node=2",
		"5s failslow node=1 x=1",
		"5s eio node=1 rate=0",
		"5s miscal node=3 bias=2ms scale=1.5",
		"6s revive node=2",
	}
	if !reflect.DeepEqual(inj.calls, want) {
		t.Fatalf("fired:\n%s\nwant:\n%s", strings.Join(inj.calls, "\n"), strings.Join(want, "\n"))
	}
}

func TestScheduleNoForMeansNoRestore(t *testing.T) {
	eng := sim.NewEngine()
	inj := &recInjector{eng: eng}
	s := (&Schedule{}).Add(Event{Kind: Crash, Node: 0, At: time.Second})
	s.Start(eng, inj)
	eng.Run()
	want := []string{"1s crash node=0"}
	if !reflect.DeepEqual(inj.calls, want) {
		t.Fatalf("fired %v, want %v", inj.calls, want)
	}
}

func TestAddPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a zero-factor failslow")
		}
	}()
	(&Schedule{}).Add(Event{Kind: FailSlow, Node: 0, At: time.Second})
}

func TestParseScheduleRoundTrip(t *testing.T) {
	in := "failslow node=1 at=2s for=4s x=8; eio node=1 at=2s for=4s rate=0.02; " +
		"crash node=2 at=4s for=3s; netslow at=7s for=1s add=200us jitter=50us; " +
		"miscal node=3 at=5s for=4s bias=2ms scale=1.5; cachedrop node=0 at=3s frac=0.5; " +
		"miscal node=all at=1s bias=-500us"
	s, err := ParseSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 7 {
		t.Fatalf("parsed %d events, want 7", len(s.Events))
	}
	if e := s.Events[0]; e.Kind != FailSlow || e.Node != 1 || e.At != 2*time.Second ||
		e.For != 4*time.Second || e.Factor != 8 {
		t.Fatalf("event 0 = %+v", e)
	}
	if e := s.Events[6]; e.Node != AllNodes || e.Extra != -500*time.Microsecond || e.Scale != 0 {
		t.Fatalf("event 6 = %+v", e)
	}
	s2, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("roundtrip mismatch:\n  %+v\n  %+v", s.Events, s2.Events)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{
		"meteorstrike node=0 at=1s",              // unknown kind
		"failslow node=0 at=1s",                  // missing factor
		"failslow node=0 at=1s x=0",              // zero factor
		"eio node=0 at=1s rate=1.5",              // rate out of range
		"eio node=0 at=1s rate=nope",             // unparseable float
		"crash node=-2 at=1s",                    // negative node
		"crash node=0 at=-1s",                    // negative onset
		"crash node=0 at 1s",                     // not key=value
		"crash node=0 at=1s x=3",                 // field from another kind
		"netslow at=1s",                          // no magnitude
		"netslow node=2 at=1s add=100us",         // netslow takes no node
		"miscal node=0 at=1s",                    // no bias, no scale
		"cachedrop node=0 at=1s frac=0",          // zero fraction
		"cachedrop node=0 at=1s for=1s frac=0.5", // cachedrop is one-shot
	}
	for _, in := range bad {
		if _, err := ParseSchedule(in); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", in)
		}
	}
}

func TestParseScheduleEmptyAndSeparators(t *testing.T) {
	s, err := ParseSchedule("  ;; crash node=0 at=1s ;  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != Crash {
		t.Fatalf("parsed %+v", s.Events)
	}
	s, err = ParseSchedule("")
	if err != nil || len(s.Events) != 0 {
		t.Fatalf("empty string: %v, %+v", err, s.Events)
	}
}

// FuzzParseSchedule asserts the parser never panics, and that accepted
// schedules survive a String→reparse roundtrip exactly (the canonical-form
// contract the -faults flag relies on).
func FuzzParseSchedule(f *testing.F) {
	f.Add("failslow node=1 at=2s for=4s x=8; crash node=2 at=4s for=3s")
	f.Add("eio node=all at=0s rate=0.01; netslow at=1s add=300us jitter=50us")
	f.Add("miscal node=3 at=5s for=4s bias=2ms scale=1.5; cachedrop node=0 at=3s frac=0.5")
	f.Add("crash node=0 at=1s;;;")
	f.Add("x=;=x;==;crash")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSchedule(in)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseSchedule(%q) accepted an invalid schedule: %v", in, verr)
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, in, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("roundtrip mismatch for %q:\n  %+v\n  %+v", in, s.Events, s2.Events)
		}
	})
}
