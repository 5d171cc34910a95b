package cluster

import (
	"fmt"
	"time"

	"mittos/internal/sim"
)

// FaultAdapter maps the abstract fault timeline (faults.Injector) onto a
// concrete fleet: device knobs, node crash state, the shared network, and
// the Mitt* predictors. It satisfies faults.Injector without importing the
// package — the interface seam points the other way.
//
// Error-injection draws come from per-node RNG streams forked eagerly at
// construction, so enabling a fault never shifts any other stream's
// sequence: a schedule with rate 0 everywhere is byte-identical to no
// adapter at all.
type FaultAdapter struct {
	c    *Cluster
	rngs []*sim.RNG
}

// NewFaultAdapter builds an adapter for the cluster, forking one
// error-injection RNG stream per node from rng.
func NewFaultAdapter(c *Cluster, rng *sim.RNG) *FaultAdapter {
	a := &FaultAdapter{c: c, rngs: make([]*sim.RNG, len(c.Nodes))}
	for i := range c.Nodes {
		a.rngs[i] = rng.Fork(fmt.Sprintf("fault-node-%d", i))
	}
	return a
}

// each fans a per-node fault out to one node or (node == faults.AllNodes,
// i.e. any negative index) the whole fleet.
func (a *FaultAdapter) each(node int, fn func(i int, n *Node)) {
	if node >= 0 {
		fn(node, a.c.Nodes[node])
		return
	}
	for i, n := range a.c.Nodes {
		fn(i, n)
	}
}

// FailSlow scales node's device timing by factor (1 restores).
func (a *FaultAdapter) FailSlow(node int, factor float64) {
	a.each(node, func(_ int, n *Node) {
		if n.Disk != nil {
			n.Disk.SetDegradation(factor)
		}
		if n.SSD != nil {
			n.SSD.SetDegradation(factor)
		}
		if n.Cache != nil {
			n.Cache.SetDegradation(factor)
		}
	})
}

// SetIOErrorRate makes node's device fail IOs with EIO at rate (0 restores).
func (a *FaultAdapter) SetIOErrorRate(node int, rate float64) {
	a.each(node, func(i int, n *Node) {
		if n.Disk != nil {
			n.Disk.SetErrorInjection(rate, a.rngs[i])
		}
		if n.SSD != nil {
			n.SSD.SetErrorInjection(rate, a.rngs[i])
		}
	})
}

// Crash takes node down fail-stop; Revive brings it back.
func (a *FaultAdapter) Crash(node int)  { a.each(node, func(_ int, n *Node) { n.Crash() }) }
func (a *FaultAdapter) Revive(node int) { a.each(node, func(_ int, n *Node) { n.Revive() }) }

// NetDegrade adds per-hop latency/jitter fleet-wide; NetRestore heals.
func (a *FaultAdapter) NetDegrade(extraLatency, extraJitter time.Duration) {
	a.c.Net.SetDegradation(extraLatency, extraJitter)
}
func (a *FaultAdapter) NetRestore() { a.c.Net.ClearDegradation() }

// Miscalibrate distorts node's Mitt* wait predictions to wait×scale + bias
// ((0,0) restores). Layers built without Mitt are unaffected.
func (a *FaultAdapter) Miscalibrate(node int, bias time.Duration, scale float64) {
	a.each(node, func(_ int, n *Node) {
		if n.Mitt != nil {
			n.Mitt.SetMiscalibration(bias, scale)
		}
		if n.MittCache != nil {
			n.MittCache.SetMiscalibration(bias, scale)
		}
	})
}

// CachePressure evicts frac of node's OS cache, once.
func (a *FaultAdapter) CachePressure(node int, frac float64) {
	a.each(node, func(i int, n *Node) {
		if n.Cache != nil {
			n.Cache.EvictFraction(frac, a.rngs[i])
		}
	})
}
