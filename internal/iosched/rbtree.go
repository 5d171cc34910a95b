// Weighted red-black tree keyed by (offset, insertion sequence): the one
// ordered structure behind both levels of CFQ (§4.2) and the deadline
// scheduler's sort. Each node carries a weight and its subtree's weight sum.
//
// Request trees hold a CFQ process node's pending IOs sorted by on-disk
// offset ("in every node, there is a red-black tree for sorting the
// process' pending IOs based on their on-disk offsets"), and the deadline
// scheduler's per-direction sort. Every request weighs 0.
//
// Service trees are CFQ's per-class round robins of process nodes. All sit
// at offset 0, so the insertion sequence alone orders them and in-order
// traversal is round-robin order. Each weighs its process' slice-clamped
// predicted IO time (procNode.contrib), which turns MittCFQ's O(P) "sum
// the nodes ahead" admission walk into one O(log P) query:
//
//	sum(nodes before X in RR order) = prefixBefore(X)
//	sum(all nodes on the tree)      = total()
//
// The invariant n.sum == sum(n.left) + sum(n.right) + n.weight is kept by
// Insert (path update on the way down), Delete (bottom-up recompute from
// the lowest changed node), addWeight (delta up to the root) and the
// rotations (recompute of the two nodes they move). Implemented from
// scratch, since the standard library has no ordered tree, with the CLRS
// insert and delete fixups.
package iosched

import "time"

type rbColor bool

const (
	rbRed   rbColor = false
	rbBlack rbColor = true
)

// rbKey orders by offset, breaking ties by insertion sequence so duplicate
// offsets coexist.
type rbKey struct {
	offset int64
	seq    uint64
}

func (a rbKey) less(b rbKey) bool {
	if a.offset != b.offset {
		return a.offset < b.offset
	}
	return a.seq < b.seq
}

type rbNode[V comparable] struct {
	key    rbKey
	val    V
	weight time.Duration
	sum    time.Duration // weight of the whole subtree rooted here
	color  rbColor
	left   *rbNode[V]
	right  *rbNode[V]
	parent *rbNode[V]
}

// rbTree is an ordered set of values. A node stays valid from the Insert
// that returns it until its Delete.
type rbTree[V comparable] struct {
	root *rbNode[V]
	size int
	seq  uint64
	free *rbNode[V] // recycled nodes, chained via right
}

func sumOf[V comparable](n *rbNode[V]) time.Duration {
	if n == nil {
		return 0
	}
	return n.sum
}

func colorOf[V comparable](n *rbNode[V]) rbColor {
	if n == nil {
		return rbBlack
	}
	return n.color
}

func minNode[V comparable](n *rbNode[V]) *rbNode[V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

// resum recomputes n's subtree sum from its children.
func (n *rbNode[V]) resum() { n.sum = sumOf(n.left) + sumOf(n.right) + n.weight }

// Len returns the number of stored values.
func (t *rbTree[V]) Len() int { return t.size }

func (t *rbTree[V]) getNode() *rbNode[V] {
	if n := t.free; n != nil {
		t.free = n.right
		n.right = nil
		return n
	}
	return &rbNode[V]{}
}

func (t *rbTree[V]) putNode(n *rbNode[V]) {
	*n = rbNode[V]{}
	n.right = t.free
	t.free = n
}

// Insert adds v at offset off with weight w, after every value already at
// that offset, and returns its node.
func (t *rbTree[V]) Insert(off int64, v V, w time.Duration) *rbNode[V] {
	t.seq++
	n := t.getNode()
	n.key, n.val, n.weight, n.sum, n.color = rbKey{off, t.seq}, v, w, w, rbRed
	t.size++
	var parent *rbNode[V]
	for cur := t.root; cur != nil; {
		cur.sum += w
		parent = cur
		if n.key.less(cur.key) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	n.parent = parent
	switch {
	case parent == nil:
		t.root = n
	case n.key.less(parent.key):
		parent.left = n
	default:
		parent.right = n
	}
	t.insertFixup(n)
	return n
}

// Min returns the lowest-keyed node, or nil.
func (t *rbTree[V]) Min() *rbNode[V] {
	if t.root == nil {
		return nil
	}
	return minNode(t.root)
}

// PopMin removes the lowest-keyed node and returns its value, or the zero
// value when the tree is empty.
func (t *rbTree[V]) PopMin() V {
	n := t.Min()
	if n == nil {
		var zero V
		return zero
	}
	v := n.val
	t.Delete(n)
	return v
}

// CeilingFrom returns the lowest-keyed node with offset ≥ off, or nil —
// the "continue in the current seek direction" dispatch choice.
func (t *rbTree[V]) CeilingFrom(off int64) *rbNode[V] {
	var best *rbNode[V]
	for cur := t.root; cur != nil; {
		if cur.key.offset >= off {
			best = cur
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return best
}

// Find returns the node holding v at offset off, or nil.
func (t *rbTree[V]) Find(off int64, v V) *rbNode[V] { return findFrom(t.root, off, v) }

func findFrom[V comparable](n *rbNode[V], off int64, v V) *rbNode[V] {
	for n != nil {
		switch {
		case n.val == v:
			return n
		case off < n.key.offset:
			n = n.left
		case off > n.key.offset:
			n = n.right
		default:
			// Same offset: the sequence tie-break can have put v on
			// either side; search both.
			if found := findFrom(n.left, off, v); found != nil {
				return found
			}
			n = n.right
		}
	}
	return nil
}

// addWeight adds delta to n's weight and to the sum of n and every
// ancestor.
func (t *rbTree[V]) addWeight(n *rbNode[V], delta time.Duration) {
	n.weight += delta
	for ; n != nil; n = n.parent {
		n.sum += delta
	}
}

// prefixBefore returns the weight of every node ordered before x.
func (t *rbTree[V]) prefixBefore(x *rbNode[V]) time.Duration {
	sum := sumOf(x.left)
	for ; x.parent != nil; x = x.parent {
		if x == x.parent.right {
			sum += x.parent.weight + sumOf(x.parent.left)
		}
	}
	return sum
}

// total returns the weight of every node on the tree.
func (t *rbTree[V]) total() time.Duration { return sumOf(t.root) }

// Delete removes node z (CLRS RB-DELETE).
func (t *rbTree[V]) Delete(z *rbNode[V]) {
	t.size--
	var x, xParent *rbNode[V]
	yColor := z.color
	switch {
	case z.left == nil:
		x, xParent = z.right, z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x, xParent = z.left, z.parent
		t.transplant(z, z.left)
	default:
		y := minNode(z.right)
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	// Every subtree that lost z, or gained or lost its successor, is
	// rooted on the path from xParent up.
	for a := xParent; a != nil; a = a.parent {
		a.resum()
	}
	if yColor == rbBlack {
		t.deleteFixup(x, xParent)
	}
	t.putNode(z)
}

func (t *rbTree[V]) transplant(u, v *rbNode[V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

// rotateLeft rotates x down-left and recomputes the two changed sums
// bottom-up (x first: it becomes the child).
func (t *rbTree[V]) rotateLeft(x *rbNode[V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	x.resum()
	y.resum()
}

func (t *rbTree[V]) rotateRight(x *rbNode[V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	x.resum()
	y.resum()
}

func (t *rbTree[V]) insertFixup(n *rbNode[V]) {
	for n.parent != nil && n.parent.color == rbRed {
		gp := n.parent.parent
		if n.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == rbRed {
				n.parent.color = rbBlack
				uncle.color = rbBlack
				gp.color = rbRed
				n = gp
			} else {
				if n == n.parent.right {
					n = n.parent
					t.rotateLeft(n)
				}
				n.parent.color = rbBlack
				gp.color = rbRed
				t.rotateRight(gp)
			}
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == rbRed {
				n.parent.color = rbBlack
				uncle.color = rbBlack
				gp.color = rbRed
				n = gp
			} else {
				if n == n.parent.left {
					n = n.parent
					t.rotateRight(n)
				}
				n.parent.color = rbBlack
				gp.color = rbRed
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = rbBlack
}

func (t *rbTree[V]) deleteFixup(x *rbNode[V], parent *rbNode[V]) {
	for x != t.root && colorOf(x) == rbBlack {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if colorOf(w) == rbRed {
				w.color = rbBlack
				parent.color = rbRed
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if colorOf(w.left) == rbBlack && colorOf(w.right) == rbBlack {
				w.color = rbRed
				x = parent
				parent = x.parent
			} else {
				if colorOf(w.right) == rbBlack {
					if w.left != nil {
						w.left.color = rbBlack
					}
					w.color = rbRed
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = rbBlack
				if w.right != nil {
					w.right.color = rbBlack
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if colorOf(w) == rbRed {
				w.color = rbBlack
				parent.color = rbRed
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if colorOf(w.right) == rbBlack && colorOf(w.left) == rbBlack {
				w.color = rbRed
				x = parent
				parent = x.parent
			} else {
				if colorOf(w.left) == rbBlack {
					if w.right != nil {
						w.right.color = rbBlack
					}
					w.color = rbRed
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = rbBlack
				if w.left != nil {
					w.left.color = rbBlack
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = rbBlack
	}
}
