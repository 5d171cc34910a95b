package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mittos/internal/sim"
)

// TestSnapshotEngineStats pins the engine-health plumbing: the wheel's
// diagnostic counters (cascades, max pending, max slot occupancy, overflow
// length) must survive the trip through Snapshot into both the text dump
// and the JSON export.
func TestSnapshotEngineStats(t *testing.T) {
	eng := sim.NewEngine()
	set := New(eng, 1, 0)

	// Produce recognizable engine activity: a burst sharing one far wheel
	// slot (the survivors cascade down when the cursor reaches it), one
	// cancel, and one beyond-horizon deadline left pending (overflow).
	for i := 0; i < 8; i++ {
		eng.After(time.Duration(1<<20+i*1024), func() {})
	}
	ev := eng.Schedule(time.Microsecond, func() {})
	ev.Cancel()
	eng.At(sim.MaxTime, func() {})
	eng.RunFor(10 * time.Millisecond)

	sn := set.Snapshot("leg-a")
	e := sn.Engine
	if e.Fired != 8 || e.Cancelled != 1 || e.Scheduled != 10 {
		t.Fatalf("fired=%d cancelled=%d scheduled=%d, want 8/1/10", e.Fired, e.Cancelled, e.Scheduled)
	}
	if e.Cascades == 0 {
		t.Fatalf("multi-level burst recorded no cascades: %+v", e)
	}
	if e.Overflow != 1 || e.Pending != 1 {
		t.Fatalf("overflow=%d pending=%d, want 1/1 (the MaxTime deadline)", e.Overflow, e.Pending)
	}
	if e.MaxPending < 9 || e.MaxSlot < 1 {
		t.Fatalf("max_pending=%d max_slot=%d, want ≥9/≥1", e.MaxPending, e.MaxSlot)
	}

	text := sn.String()
	for _, want := range []string{"cascades=", "max-pending=", "max-slot=", "overflow=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text dump missing %q:\n%s", want, text)
		}
	}
	// Host-side pool sizes depend on which legs ran earlier on a worker,
	// so they stay out of the dump.
	if strings.Contains(text, "freelist") {
		t.Fatalf("text dump reports a host pool size:\n%s", text)
	}

	raw, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	engObj, ok := doc["engine"].(map[string]any)
	if !ok {
		t.Fatalf("no engine object in JSON: %s", raw)
	}
	for _, key := range []string{"cascades", "max_pending", "max_slot", "overflow_len"} {
		if _, ok := engObj[key]; !ok {
			t.Fatalf("engine JSON missing %q: %s", key, raw)
		}
	}
	if _, ok := engObj["freelist_len"]; ok {
		t.Fatalf("engine JSON reports a host pool size: %s", raw)
	}
	if engObj["cascades"].(float64) != float64(e.Cascades) {
		t.Fatalf("JSON cascades %v != stats %d", engObj["cascades"], e.Cascades)
	}
}

// TestSnapshotStringDeterministic locks the dump's byte-for-byte
// stability: two sets fed identically must render identically.
func TestSnapshotStringDeterministic(t *testing.T) {
	build := func() string {
		eng := sim.NewEngine()
		set := New(eng, 1, 0)
		for i := 0; i < 4; i++ {
			eng.After(time.Duration(i+1)*300*time.Microsecond, func() {})
		}
		eng.Run()
		return set.Snapshot("leg").String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("identical runs rendered different dumps:\n%s\n---\n%s", a, b)
	}
}
