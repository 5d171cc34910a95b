package experiments

import (
	"fmt"
	"testing"
	"time"

	"mittos/internal/cluster"
)

// TestLegArenaReuse pins the arena contract: running a leg through an arena
// that already hosted other legs must be indistinguishable from running it
// on a fresh arena. The schedule alternates Base and MittOS mixed-workload
// legs — the shape a real worker sees — so any state leaking across reset
// (a stale pooled context, an engine that didn't rewind, a dirty sample
// buffer, a recycled SSD with leftover FTL state) shows up as a divergent
// fingerprint. The race detector (CI runs the suite under -race) guards the
// reclaim walk itself.
func TestLegArenaReuse(t *testing.T) {
	opt := tinyOptions()
	opt.Duration = 2 * time.Second

	leg := func(mitt bool) func(*legArena) string {
		name := "base"
		if mitt {
			name = "mitt"
		}
		return func(a *legArena) string {
			f := a.newFleet(opt, fleetDisk, mitt, "arenareuse-"+name)
			f.addEC2DiskNoise(opt)
			var strat cluster.Strategy
			var ps cluster.PutStrategy
			if mitt {
				strat = &cluster.MittOSStrategy{C: f.c, Deadline: 20 * time.Millisecond, UseWaitHint: true}
				ps = &cluster.MittOSPut{C: f.c, Deadline: 20 * time.Millisecond, UseWaitHint: true}
			} else {
				strat = &cluster.BaseStrategy{C: f.c}
				ps = &cluster.BasePut{C: f.c}
			}
			clients := f.startClients(opt, opt.clientConfig(1), ycsbMixWorkloads[0].config(opt.Keys),
				strat, ps, false, "ymix-")
			a.run(opt.Duration, legDrain)
			o := harvest(clients, getLat|putLat)
			io, puts := o.get, o.put
			if io.N() == 0 || puts.N() == 0 {
				t.Fatalf("%s leg ran empty (%d gets, %d puts); the fingerprint would compare nothing", name, io.N(), puts.N())
			}
			return fmt.Sprintf(
				"%s n=%d p50=%v p95=%v p99=%v putn=%d putp95=%v putp99=%v finished=%d errors=%d",
				name, io.N(), io.Percentile(50), io.Percentile(95), io.Percentile(99),
				puts.N(), puts.Percentile(95), puts.Percentile(99), o.finished, o.errors)
		}
	}

	schedule := []func(*legArena) string{leg(false), leg(true), leg(false), leg(true)}

	// Fresh references: a brand-new arena per leg, never reused.
	want := make([]string, len(schedule))
	for i, fn := range schedule {
		want[i] = fn(newLegArena())
	}

	// The runLegs discipline: one arena hosts every leg, reset in between.
	a := newLegArena()
	for i, fn := range schedule {
		if got := fn(a); got != want[i] {
			t.Fatalf("leg %d through a reused arena diverged from the fresh-arena run:\n reused: %s\n  fresh: %s",
				i, got, want[i])
		}
		a.reset()
	}
}
