package iosched

// Test oracles: the slow, obviously-correct walks and invariant checks the
// property and fuzz tests verify the schedulers' fast paths against, and
// the accessors only tests read the schedulers through.

import (
	"time"

	"mittos/internal/blockio"
)

// ProcsAheadOf returns the process IDs whose queued IOs CFQ would service
// before a newly arriving IO from `proc` at (class, prio) — the O(P) walk
// of §4.2, kept as the oracle AheadCharge and IsAheadOf are verified
// against. The order is: the active node, nodes of higher classes, then
// same-class nodes ahead in round-robin order.
func (c *CFQ) ProcsAheadOf(proc int, class blockio.Class) []int {
	var ahead []int
	// The active node counts only when the newcomer cannot preempt it: a
	// higher-class arrival takes over at the next dispatch decision, so
	// only the active node's device-resident IOs (accounted separately by
	// the caller) delay it.
	rank := class.Rank()
	if c.active != nil && c.active.proc != proc && c.active.tree.Len() > 0 &&
		rank >= c.active.class.Rank() {
		ahead = append(ahead, c.active.proc)
	}
	var procSlot *rbNode[*procNode]
	if pn := c.lookup(proc); pn != nil && pn.st != nil && pn.stRank == rank {
		procSlot = pn.st
	}
	for r := 0; r <= rank; r++ {
		c.st[r].Each(func(x *rbNode[*procNode]) bool {
			n := x.val
			if n.proc != proc && n.tree.Len() > 0 &&
				(r < rank || procSlot == nil || x.key.less(procSlot.key)) {
				ahead = append(ahead, n.proc)
			}
			return true
		})
	}
	return ahead
}

// PendingOf returns the number of queued IOs of one process.
func (c *CFQ) PendingOf(proc int) int {
	if n := c.lookup(proc); n != nil {
		return n.tree.Len()
	}
	return 0
}

// EachQueued visits every queued request of a process in offset order.
func (c *CFQ) EachQueued(proc int, fn func(*blockio.Request) bool) {
	if n := c.lookup(proc); n != nil {
		n.tree.Each(func(x *rbNode[*blockio.Request]) bool { return fn(x.val) })
	}
}

// NodeSlice returns the time slice the proc's node currently earns — the
// bound on how long one node can hold the device per round.
func (c *CFQ) NodeSlice(proc int) time.Duration {
	if n := c.lookup(proc); n != nil {
		return c.cfg.Slice(n.prio)
	}
	return c.cfg.Slice(4)
}

// Each visits nodes in key order; return false to stop.
func (t *rbTree[V]) Each(fn func(*rbNode[V]) bool) {
	var walk func(n *rbNode[V]) bool
	walk = func(n *rbNode[V]) bool {
		return n == nil || (walk(n.left) && fn(n) && walk(n.right))
	}
	walk(t.root)
}

// checkInvariants validates the red-black shape, the parent links, the key
// order and the weight sum at every node; used by property and fuzz tests.
// It returns the black-height, or -1 on any violation.
func (t *rbTree[V]) checkInvariants() int {
	if colorOf(t.root) != rbBlack {
		return -1
	}
	var prev *rbNode[V]
	var check func(n, parent *rbNode[V]) int
	check = func(n, parent *rbNode[V]) int {
		if n == nil {
			return 1
		}
		if n.parent != parent {
			return -1
		}
		if n.color == rbRed && (colorOf(n.left) == rbRed || colorOf(n.right) == rbRed) {
			return -1
		}
		if n.sum != sumOf(n.left)+sumOf(n.right)+n.weight {
			return -1
		}
		lh := check(n.left, n)
		if lh < 0 || (prev != nil && !prev.key.less(n.key)) {
			return -1
		}
		prev = n
		rh := check(n.right, n)
		if rh < 0 || lh != rh {
			return -1
		}
		if n.color == rbBlack {
			return lh + 1
		}
		return lh
	}
	return check(t.root, nil)
}
