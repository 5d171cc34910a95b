package experiments

import (
	"sync"

	"mittos/internal/cluster"
	"mittos/internal/sim"
	"mittos/internal/ssd"
	"mittos/internal/stats"
)

// legArena is a worker-local, reusable simulation context. Every leg builds
// its fleets through the arena (newFleet): the engine (with its event
// freelist), the cluster-level serve/call context freelists, the shared
// block-request pool, the page-cache slab, recycled SSD devices, and the
// latency-sample buffer pool all survive from one leg to the next. Between
// legs the runner calls reset, which reclaims everything the finished leg
// left behind and rewinds the engine to time zero.
//
// Arena reuse is invisible to the simulation: every pooled object is fully
// reinitialized at acquire, the engine's (time, seq) order restarts from the
// same zero state a fresh engine has, and sample-buffer capacity does not
// affect Sample semantics. TestLegArenaReuse pins this (a reused arena must
// render byte-identically to a fresh one), and the golden suite runs the
// whole experiment matrix through arenas at -golden-workers 1 and 8.
type legArena struct {
	eng   *sim.Engine
	pools *cluster.Pools
	ssds  *ssd.Pool
	bufs  *stats.BufPool

	// Per-leg registries, drained by reset: fleets built via a.newFleet
	// and the clients started on them.
	fleets  []*fleet
	clients []*cluster.Client
}

func newLegArena() *legArena {
	return &legArena{
		eng:   sim.NewEngine(),
		pools: &cluster.Pools{},
		ssds:  &ssd.Pool{},
		bufs:  &stats.BufPool{},
	}
}

// reset reclaims everything the finished leg stranded and rewinds the arena
// for the next leg. It must only run after the leg has returned: the engine
// is quiescent, every result the leg produced has been copied or merged out
// of the pooled samples, and no callback can fire between the reclaim and
// the engine reset (Engine.Reset discards all pending events, so stranded
// contexts harvested here are never touched again).
func (a *legArena) reset() {
	for _, f := range a.fleets {
		f.stopNoise() // idempotent; legs usually stopped their own noise
		for _, n := range f.c.Nodes {
			// Hand stranded serve contexts (and their block requests) back
			// to the shared pools. Safe only here: the engine reset below
			// guarantees none of their pending callbacks ever fire.
			n.ReclaimStranded()
			if n.Cache != nil {
				n.Cache.Reclaim()
			}
			if n.SSD != nil {
				a.ssds.Put(n.SSD)
				n.SSD = nil
			}
		}
	}
	for _, cl := range a.clients {
		cl.ReclaimBufs()
	}
	for i := range a.fleets {
		a.fleets[i] = nil
	}
	a.fleets = a.fleets[:0]
	for i := range a.clients {
		a.clients[i] = nil
	}
	a.clients = a.clients[:0]
	a.eng.Reset()
}

// The package-level arena pool: arenas persist across runLegs calls (and
// across benchmark iterations), so what they accumulate — SSD devices with
// the FTL leaves their legs grew, page slabs, sample buffers — is paid for
// once per worker, not once per leg.
var (
	arenaMu   sync.Mutex
	arenaFree []*legArena
)

func acquireArena() *legArena {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	if n := len(arenaFree); n > 0 {
		a := arenaFree[n-1]
		arenaFree[n-1] = nil
		arenaFree = arenaFree[:n-1]
		return a
	}
	return newLegArena()
}

func releaseArena(a *legArena) {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	arenaFree = append(arenaFree, a)
}
