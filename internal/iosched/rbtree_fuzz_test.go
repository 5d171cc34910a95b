package iosched

import (
	"sort"
	"testing"
	"time"

	"mittos/internal/blockio"
)

// FuzzRBTree drives the weighted red-black tree with a byte-program of
// insert/pop/remove/ceiling/re-weight ops and checks every answer against a
// reference model (a sorted slice ordered by the same (offset,
// insertion-seq) key). Inserts carry a weight from the program and a
// re-weight op moves one node's weight through addWeight, so the subtree
// sums go through every delete case. After every mutation the tree must
// satisfy checkInvariants, and total() and prefixBefore of every live node
// must equal the model's sums.
func FuzzRBTree(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 2, 4, 8, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 2, 2, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 3, 1, 3, 0, 4, 2})
	f.Add([]byte{0, 7, 0, 7, 0, 7, 0, 7, 3, 1, 3, 1, 2, 2})
	f.Add([]byte{60, 9, 30, 4, 120, 17, 66, 2, 240, 30, 36, 5, 3, 1, 11, 3, 59, 0, 3, 2})
	f.Add([]byte{6, 1, 12, 2, 18, 3, 24, 4, 30, 5, 36, 6, 42, 7, 9, 2, 9, 0, 29, 4, 3, 3, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		type entry struct {
			off  int64
			seq  uint64
			w    time.Duration
			req  *blockio.Request
			node *rbNode[*blockio.Request]
		}
		var (
			tr    reqTree
			model []entry
			seq   uint64
		)
		// insertAt keeps the model in (offset, seq) order — the tree's key.
		insertAt := func(e entry) {
			i := sort.Search(len(model), func(i int) bool {
				if model[i].off != e.off {
					return model[i].off > e.off
				}
				return model[i].seq > e.seq
			})
			model = append(model, entry{})
			copy(model[i+1:], model[i:])
			model[i] = e
		}
		check := func(op string) {
			t.Helper()
			if tr.checkInvariants() < 0 {
				t.Fatalf("%s: red-black invariants violated (size %d)", op, len(model))
			}
			if tr.Len() != len(model) {
				t.Fatalf("%s: Len=%d model=%d", op, tr.Len(), len(model))
			}
			min := tr.Min()
			switch {
			case len(model) == 0 && min != nil:
				t.Fatalf("%s: Min=%v on empty tree", op, min.val)
			case len(model) > 0 && min != model[0].node:
				t.Fatalf("%s: Min offset=%d, model min offset=%d", op, min.val.Offset, model[0].off)
			}
			var prefix time.Duration
			for i, e := range model {
				if got := tr.prefixBefore(e.node); got != prefix {
					t.Fatalf("%s: prefixBefore(#%d at %d)=%v, model %v", op, i, e.off, got, prefix)
				}
				prefix += e.w
			}
			if got := tr.total(); got != prefix {
				t.Fatalf("%s: total=%v, model %v", op, got, prefix)
			}
		}

		for i := 0; i+1 < len(data) && i < 4096; i += 2 {
			op, arg := data[i]%6, data[i+1]
			// The op byte's quotient is the weight inserts and re-weights
			// use.
			w := time.Duration(data[i] / 6)
			switch op {
			case 0, 1: // insert; small offset domain to force duplicates
				off := int64(arg%32) * 4096
				req := &blockio.Request{Offset: off}
				seq++
				n := tr.Insert(off, req, w)
				if n.val != req || n.weight != w {
					t.Fatalf("Insert returned a node holding %v weighing %v", n.val, n.weight)
				}
				insertAt(entry{off: off, seq: seq, w: w, req: req, node: n})
				check("insert")
			case 2: // pop min
				got := tr.PopMin()
				if len(model) == 0 {
					if got != nil {
						t.Fatalf("PopMin=%v on empty tree", got)
					}
					continue
				}
				if got != model[0].req {
					t.Fatalf("PopMin offset=%d, model min offset=%d", got.Offset, model[0].off)
				}
				model = model[1:]
				check("popmin")
			case 3: // remove by identity: Find, then Delete
				if len(model) == 0 {
					if tr.Find(0, &blockio.Request{}) != nil {
						t.Fatal("Find of a never-inserted request returned a node")
					}
					continue
				}
				i := int(arg) % len(model)
				n := tr.Find(model[i].off, model[i].req)
				if n != model[i].node {
					t.Fatalf("Find lost request at offset %d", model[i].off)
				}
				tr.Delete(n)
				model = append(model[:i], model[i+1:]...)
				check("remove")
			case 4: // ceiling query
				off := int64(arg%40) * 4096
				got := tr.CeilingFrom(off)
				var want *rbNode[*blockio.Request]
				for _, e := range model {
					if e.off >= off {
						want = e.node
						break
					}
				}
				if got != want {
					t.Fatalf("CeilingFrom(%d): got %v want %v (size %d)", off, got, want, len(model))
				}
			case 5: // re-weight one live node
				if len(model) == 0 {
					continue
				}
				e := &model[int(arg)%len(model)]
				tr.addWeight(e.node, w-e.w)
				e.w = w
				if e.node.weight != w {
					t.Fatalf("addWeight left weight %v, want %v", e.node.weight, w)
				}
				check("addweight")
			}
		}

		// Drain: full in-order agreement, then the tree must be empty.
		walked := tr.values()
		if len(walked) != len(model) {
			t.Fatalf("Each visited %d of %d", len(walked), len(model))
		}
		for i, r := range walked {
			if r != model[i].req {
				t.Fatalf("Each order diverges at %d: offset %d vs %d", i, r.Offset, model[i].off)
			}
		}
		for len(model) > 0 {
			if got := tr.PopMin(); got != model[0].req {
				t.Fatalf("drain PopMin offset=%d, want %d", got.Offset, model[0].off)
			}
			model = model[1:]
			check("drain")
		}
		if tr.Len() != 0 || tr.Min() != nil || tr.total() != 0 {
			t.Fatal("tree not empty after drain")
		}
	})
}
