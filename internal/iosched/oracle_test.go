package iosched

// Test oracles: the slow, obviously-correct walks and invariant checks the
// property and fuzz tests verify the schedulers' fast paths against.

import "mittos/internal/blockio"

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
	var procKey uint64
	procOn := false
	if pn := c.lookup(proc); pn != nil && pn.st != nil && pn.stRank == rank {
		procKey, procOn = pn.st.key, true
	}
	for r := 0; r <= rank; r++ {
		for x := c.st[r].first(); x != nil; x = stNext(x) {
			n := x.pn
			if n.proc == proc || n.tree.Len() == 0 {
				continue
			}
			if r < rank || !procOn || x.key < procKey {
				ahead = append(ahead, n.proc)
			}
		}
	}
	return ahead
}

// checkAggregates validates red-black shape, key order, and the subtree-sum
// invariant; used by property and fuzz tests. Returns the black-height or
// -1 on any violation.
func (t *serviceTree) checkAggregates() int {
	if stColor(t.root) != rbBlack {
		return -1
	}
	var check func(n *stNode) int
	check = func(n *stNode) int {
		if n == nil {
			return 1
		}
		if n.color == rbRed && (stColor(n.left) == rbRed || stColor(n.right) == rbRed) {
			return -1
		}
		if n.left != nil && n.left.key >= n.key {
			return -1
		}
		if n.right != nil && n.right.key <= n.key {
			return -1
		}
		if n.sum != stSum(n.left)+stSum(n.right)+n.pn.contrib {
			return -1
		}
		if n.pn.st != n {
			return -1
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh < 0 || rh < 0 || lh != rh {
			return -1
		}
		if n.color == rbBlack {
			return lh + 1
		}
		return lh
	}
	return check(t.root)
}

// checkInvariants validates red-black properties; used by property tests.
// It returns the black-height, or -1 on violation.
func (t *rbTree) checkInvariants() int {
	if colorOf(t.root) != rbBlack {
		return -1
	}
	var check func(n *rbNode) int
	check = func(n *rbNode) int {
		if n == nil {
			return 1
		}
		if n.color == rbRed && (colorOf(n.left) == rbRed || colorOf(n.right) == rbRed) {
			return -1
		}
		if n.left != nil && !n.left.key.less(n.key) {
			return -1
		}
		if n.right != nil && !n.key.less(n.right.key) {
			return -1
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh < 0 || rh < 0 || lh != rh {
			return -1
		}
		if n.color == rbBlack {
			return lh + 1
		}
		return lh
	}
	return check(t.root)
}
