package iosched

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
)

func req(off int64) *blockio.Request {
	return &blockio.Request{Op: blockio.Read, Offset: off, Size: 4096}
}

// reqTree is a request tree, as CFQ's process nodes and the deadline
// scheduler keep them.
type reqTree = rbTree[*blockio.Request]

// insertReq adds a request at its offset with weight 0, as the schedulers
// do.
func insertReq(t *reqTree, r *blockio.Request) { t.Insert(r.Offset, r, 0) }

// removeReq deletes r, reporting whether it was on the tree.
func removeReq(t *reqTree, r *blockio.Request) bool {
	n := t.Find(r.Offset, r)
	if n == nil {
		return false
	}
	t.Delete(n)
	return true
}

// values returns the tree's values in key order.
func (t *rbTree[V]) values() []V {
	var vs []V
	t.Each(func(n *rbNode[V]) bool { vs = append(vs, n.val); return true })
	return vs
}

func TestRBTreeInsertAscendingIteration(t *testing.T) {
	var tr reqTree
	offs := []int64{50, 10, 90, 30, 70, 20, 80, 40, 60, 0}
	for _, o := range offs {
		insertReq(&tr, req(o))
	}
	if tr.Len() != len(offs) {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := offsets(tr.values())
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("iteration not sorted: %v", got)
	}
}

func TestRBTreeMinPopMin(t *testing.T) {
	var tr reqTree
	for _, o := range []int64{5, 3, 8, 1, 9} {
		insertReq(&tr, req(o))
	}
	if tr.Min().val.Offset != 1 {
		t.Fatalf("Min = %d", tr.Min().val.Offset)
	}
	want := []int64{1, 3, 5, 8, 9}
	for _, w := range want {
		r := tr.PopMin()
		if r.Offset != w {
			t.Fatalf("PopMin = %d, want %d", r.Offset, w)
		}
	}
	if tr.PopMin() != nil || tr.Min() != nil {
		t.Fatal("empty tree should return nil")
	}
}

func TestRBTreeDuplicateOffsets(t *testing.T) {
	var tr reqTree
	a, b, c := req(42), req(42), req(42)
	insertReq(&tr, a)
	insertReq(&tr, b)
	insertReq(&tr, c)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d with duplicates", tr.Len())
	}
	if !removeReq(&tr, b) {
		t.Fatal("failed to remove middle duplicate")
	}
	if removeReq(&tr, b) {
		t.Fatal("double remove succeeded")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d after removal", tr.Len())
	}
	if got := tr.values(); len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatal("wrong survivors after duplicate removal")
	}
}

func TestRBTreeCeilingFrom(t *testing.T) {
	var tr reqTree
	for _, o := range []int64{10, 20, 30} {
		insertReq(&tr, req(o))
	}
	cases := []struct {
		from int64
		want int64
	}{{0, 10}, {10, 10}, {11, 20}, {25, 30}, {30, 30}}
	for _, c := range cases {
		got := tr.CeilingFrom(c.from)
		if got == nil || got.val.Offset != c.want {
			t.Fatalf("CeilingFrom(%d) = %v, want %d", c.from, got, c.want)
		}
	}
	if tr.CeilingFrom(31) != nil {
		t.Fatal("CeilingFrom past max should be nil")
	}
}

func TestRBTreeEachEarlyStop(t *testing.T) {
	var tr reqTree
	for i := int64(0); i < 10; i++ {
		insertReq(&tr, req(i))
	}
	count := 0
	tr.Each(func(*rbNode[*blockio.Request]) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRBTreeRemoveMissing(t *testing.T) {
	var tr reqTree
	insertReq(&tr, req(1))
	if removeReq(&tr, req(1)) {
		t.Fatal("removed a request that was never inserted (identity match required)")
	}
}

func TestPropertyRBTreeInvariantsUnderInsertDelete(t *testing.T) {
	f := func(ops []int16) bool {
		var tr reqTree
		live := map[int64][]*blockio.Request{}
		n := 0
		for _, op := range ops {
			off := int64(op % 64)
			if off < 0 {
				off = -off
			}
			if op >= 0 {
				r := req(off)
				insertReq(&tr, r)
				live[off] = append(live[off], r)
				n++
			} else if rs := live[off]; len(rs) > 0 {
				r := rs[len(rs)-1]
				live[off] = rs[:len(rs)-1]
				if !removeReq(&tr, r) {
					return false
				}
				n--
			}
			if tr.Len() != n {
				return false
			}
			if tr.checkInvariants() < 0 {
				return false
			}
		}
		// Final iteration must be sorted and complete.
		got := offsets(tr.values())
		if len(got) != n {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPopMinDrainsSorted(t *testing.T) {
	f := func(offs []uint16) bool {
		var tr reqTree
		for _, o := range offs {
			insertReq(&tr, req(int64(o)))
		}
		prev := int64(-1)
		for tr.Len() > 0 {
			r := tr.PopMin()
			if r.Offset < prev {
				return false
			}
			prev = r.Offset
			if tr.checkInvariants() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// procTree is a service tree: a class round robin of process nodes.
type procTree = rbTree[*procNode]

// appendProc inserts pn at offset 0 weighted by its contrib, as CFQ.enqueue
// does.
func appendProc(t *procTree, pn *procNode) { pn.st = t.Insert(0, pn, pn.contrib) }

// popProc takes the head of the round robin off, as CFQ.selectNext does.
func popProc(t *procTree) *procNode {
	pn := t.PopMin()
	if pn != nil {
		pn.st = nil
	}
	return pn
}

// naivePrefix walks the tree in round-robin order summing contribs until it
// reaches target — the reference for prefixBefore.
func naivePrefix(t *procTree, target *procNode) time.Duration {
	var sum time.Duration
	for _, pn := range t.values() {
		if pn == target {
			break
		}
		sum += pn.contrib
	}
	return sum
}

func naiveTotal(t *procTree) time.Duration {
	var sum time.Duration
	for _, pn := range t.values() {
		sum += pn.contrib
	}
	return sum
}

func TestServiceTreeAppendPopFIFO(t *testing.T) {
	var st procTree
	var order []*procNode
	for i := 0; i < 60; i++ {
		pn := &procNode{proc: i, contrib: time.Duration(i%7+1) * time.Millisecond}
		appendProc(&st, pn)
		order = append(order, pn)
		if st.checkInvariants() < 0 {
			t.Fatalf("invariants broken after append %d", i)
		}
		if st.total() != naiveTotal(&st) {
			t.Fatalf("total()=%v, naive=%v after append %d", st.total(), naiveTotal(&st), i)
		}
	}
	if st.Len() != 60 {
		t.Fatalf("Len = %d, want 60", st.Len())
	}
	for i, want := range order {
		got := popProc(&st)
		if got != want {
			t.Fatalf("PopMin %d returned proc %d, want %d (FIFO)", i, got.proc, want.proc)
		}
		if st.checkInvariants() < 0 {
			t.Fatalf("invariants broken after pop %d", i)
		}
	}
	if st.PopMin() != nil || st.Len() != 0 || st.total() != 0 {
		t.Fatal("tree not empty after drain")
	}
}

// TestServiceTreeRotationAggregates exercises the rotation paths hard:
// monotonic appends descend the right spine, so every insertFixup rotates,
// and interleaved pops exercise deleteFixup. The subtree sums and every
// prefix query must survive each restructure.
func TestServiceTreeRotationAggregates(t *testing.T) {
	var st procTree
	live := map[*procNode]bool{}
	checkAll := func(op string) {
		t.Helper()
		if st.checkInvariants() < 0 {
			t.Fatalf("%s: invariants violated (size %d)", op, st.Len())
		}
		if st.total() != naiveTotal(&st) {
			t.Fatalf("%s: total mismatch", op)
		}
		for pn := range live {
			if got, want := st.prefixBefore(pn.st), naivePrefix(&st, pn); got != want {
				t.Fatalf("%s: prefixBefore(proc %d) = %v, naive %v", op, pn.proc, got, want)
			}
		}
	}
	for i := 0; i < 200; i++ {
		pn := &procNode{proc: i, contrib: time.Duration(i%13) * time.Millisecond}
		appendProc(&st, pn)
		live[pn] = true
		checkAll("append")
		if i%3 == 2 {
			delete(live, popProc(&st))
			checkAll("popMin")
		}
		if i%5 == 4 {
			// In-place contrib change with delta propagation.
			var victim *procNode
			for pn := range live {
				victim = pn
				break
			}
			delta := time.Duration(i%9-4) * time.Millisecond
			if victim.contrib+delta < 0 {
				delta = -victim.contrib
			}
			victim.contrib += delta
			st.addWeight(victim.st, delta)
			checkAll("addWeight")
		}
	}
	for st.Len() > 0 {
		delete(live, popProc(&st))
		checkAll("drain")
	}
}

func TestServiceTreeNodeRecycling(t *testing.T) {
	var st procTree
	// Fill and drain twice: the second round must reuse freelist nodes
	// without stale state leaking through.
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			appendProc(&st, &procNode{proc: i, contrib: time.Millisecond})
		}
		if st.total() != 20*time.Millisecond {
			t.Fatalf("round %d: total = %v", round, st.total())
		}
		for st.Len() > 0 {
			popProc(&st)
			if st.checkInvariants() < 0 {
				t.Fatalf("round %d: invariants violated on drain", round)
			}
		}
	}
}
