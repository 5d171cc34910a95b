// Red-black tree keyed by (offset, seq), used by CFQ process nodes to keep
// each process' pending IOs sorted by on-disk offset (§4.2: "in every node,
// there is a red-black tree for sorting the process' pending IOs based on
// their on-disk offsets"). Implemented from scratch — stdlib has no ordered
// tree — with the classic CLRS insert/delete fixups.
package iosched

import "mittos/internal/blockio"

type rbColor bool

const (
	rbRed   rbColor = false
	rbBlack rbColor = true
)

type rbNode struct {
	key    rbKey
	req    *blockio.Request
	color  rbColor
	left   *rbNode
	right  *rbNode
	parent *rbNode
}

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

// rbTree is an offset-sorted set of requests.
type rbTree struct {
	root *rbNode
	size int
	seq  uint64
	free *rbNode // recycled nodes, chained via right
}

// Len returns the number of stored requests.
func (t *rbTree) Len() int { return t.size }

func (t *rbTree) getNode() *rbNode {
	if n := t.free; n != nil {
		t.free = n.right
		*n = rbNode{}
		return n
	}
	return &rbNode{}
}

func (t *rbTree) putNode(n *rbNode) {
	*n = rbNode{}
	n.right = t.free
	t.free = n
}

// Insert adds a request keyed by its offset.
func (t *rbTree) Insert(req *blockio.Request) {
	t.seq++
	n := t.getNode()
	n.key, n.req, n.color = rbKey{req.Offset, t.seq}, req, rbRed
	t.size++
	if t.root == nil {
		n.color = rbBlack
		t.root = n
		return
	}
	cur := t.root
	for {
		if n.key.less(cur.key) {
			if cur.left == nil {
				cur.left = n
				n.parent = cur
				break
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = n
				n.parent = cur
				break
			}
			cur = cur.right
		}
	}
	t.insertFixup(n)
}

func (t *rbTree) insertFixup(n *rbNode) {
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

func (t *rbTree) rotateLeft(x *rbNode) {
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
}

func (t *rbTree) rotateRight(x *rbNode) {
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
}

func (t *rbTree) minNode(n *rbNode) *rbNode {
	for n.left != nil {
		n = n.left
	}
	return n
}

// Min returns the lowest-offset request, or nil.
func (t *rbTree) Min() *blockio.Request {
	if t.root == nil {
		return nil
	}
	return t.minNode(t.root).req
}

// CeilingFrom returns the lowest-offset request with offset ≥ off, or nil —
// the CFQ "continue in the current seek direction" dispatch choice.
func (t *rbTree) CeilingFrom(off int64) *blockio.Request {
	var best *rbNode
	cur := t.root
	probe := rbKey{off, 0}
	for cur != nil {
		if probe.less(cur.key) || probe == cur.key {
			best = cur
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	if best == nil {
		return nil
	}
	return best.req
}

// PopMin removes and returns the lowest-offset request, or nil.
func (t *rbTree) PopMin() *blockio.Request {
	if t.root == nil {
		return nil
	}
	n := t.minNode(t.root)
	req := n.req
	t.delete(n)
	return req
}

// Remove deletes the node holding req (matched by identity). It returns
// whether the request was found.
func (t *rbTree) Remove(req *blockio.Request) bool {
	n := t.findReq(t.root, req)
	if n == nil {
		return false
	}
	t.delete(n)
	return true
}

func (t *rbTree) findReq(n *rbNode, req *blockio.Request) *rbNode {
	for n != nil {
		if n.req == req {
			return n
		}
		if req.Offset < n.key.offset {
			n = n.left
		} else if req.Offset > n.key.offset {
			n = n.right
		} else {
			// Same offset: identity can be on either side due to seq
			// tiebreak; search both.
			if found := t.findReq(n.left, req); found != nil {
				return found
			}
			n = n.right
		}
	}
	return nil
}

// Each visits requests in ascending offset order; return false to stop.
func (t *rbTree) Each(fn func(*blockio.Request) bool) {
	var walk func(n *rbNode) bool
	walk = func(n *rbNode) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n.req) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}

// delete removes node z (CLRS RB-DELETE).
func (t *rbTree) delete(z *rbNode) {
	t.size--
	var x, xParent *rbNode
	y := z
	yColor := y.color
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = t.minNode(z.right)
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
	if yColor == rbBlack {
		t.deleteFixup(x, xParent)
	}
	t.putNode(z)
}

func (t *rbTree) transplant(u, v *rbNode) {
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

func (t *rbTree) deleteFixup(x *rbNode, parent *rbNode) {
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

func colorOf(n *rbNode) rbColor {
	if n == nil {
		return rbBlack
	}
	return n.color
}
