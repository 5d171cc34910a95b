package iosched

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// fuzzDevice is a Downstream whose completions are driven explicitly by the
// fuzz program, so dispatch/complete interleavings are fully controllable.
type fuzzDevice struct {
	eng   *sim.Engine
	depth int
	inflt []*blockio.Request
	hook  func()
}

func (d *fuzzDevice) Submit(req *blockio.Request) {
	req.DispatchTime = d.eng.Now()
	d.inflt = append(d.inflt, req)
}
func (d *fuzzDevice) InFlight() int            { return len(d.inflt) }
func (d *fuzzDevice) CanAccept() bool          { return len(d.inflt) < d.depth }
func (d *fuzzDevice) SetSlotFreeHook(f func()) { d.hook = f }

func (d *fuzzDevice) completeOne() bool {
	if len(d.inflt) == 0 {
		return false
	}
	r := d.inflt[0]
	d.inflt = d.inflt[1:]
	r.CompleteTime = d.eng.Now()
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
	if d.hook != nil {
		d.hook()
	}
	return true
}

// FuzzCFQAggregates drives CFQ with a byte-program of submits (including
// ionice class/priority changes), explicit device completions, removals,
// cancellations, charge mutations, and virtual-time advancement. After every
// operation it checks:
//
//   - the service trees' red-black, key-order and weight-sum invariants
//     (checkInvariants), which rotations must preserve, and the
//     round-robin rule: each slot weighs its process' contrib, and the
//     process points back at its slot;
//   - AheadCharge (O(log P) prefix query) against the retained O(P)
//     ProcsAheadOf walk combined with per-proc clamped charges;
//   - IsAheadOf membership against the same walk.
func FuzzCFQAggregates(f *testing.F) {
	f.Add([]byte{0, 17, 0, 42, 0, 99, 1, 0, 3, 20, 0, 7, 2, 1, 4, 20, 5, 9})
	f.Add([]byte{0, 0, 0, 54, 0, 108, 0, 162, 0, 216, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 5, 3, 200, 0, 11, 3, 100, 5, 30, 0, 23, 2, 0, 1, 0, 4, 250})
	f.Add([]byte{0, 1, 0, 2, 6, 3, 0, 4, 6, 5, 1, 0, 6, 7, 5, 45, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := sim.NewEngine()
		dev := &fuzzDevice{eng: eng, depth: 2}
		cfg := CFQConfig{SliceBase: 8 * time.Millisecond, SliceStep: 2 * time.Millisecond, Quantum: 2}
		c := NewCFQ(eng, cfg, dev)

		const nProcs = 6
		// naive recomputes AheadCharge from the walking oracle: the clamped
		// charge of every process the walk says is ahead.
		naive := func(proc int, class blockio.Class) time.Duration {
			var sum time.Duration
			for _, p := range c.ProcsAheadOf(proc, class) {
				ch := c.ProcCharge(p)
				if s := c.NodeSlice(p); ch > s {
					ch = s
				}
				sum += ch
			}
			return sum
		}
		check := func(op string) {
			t.Helper()
			for r := 0; r < 3; r++ {
				if c.st[r].checkInvariants() < 0 {
					t.Fatalf("%s: service tree %d invariants violated", op, r)
				}
				// The round-robin rule: a node weighs its process'
				// contrib, and the process points back at the node.
				c.st[r].Each(func(x *rbNode[*procNode]) bool {
					if pn := x.val; x.weight != pn.contrib || pn.st != x || pn.stRank != r {
						t.Fatalf("%s: service tree %d slot of proc %d: weight %v contrib %v, back-pointer ok %v, rank %d",
							op, r, pn.proc, x.weight, pn.contrib, pn.st == x, pn.stRank)
					}
					return true
				})
			}
			// nProcs+1 also queries a process CFQ has never seen.
			for proc := 0; proc <= nProcs; proc++ {
				for cls := 0; cls < 3; cls++ {
					class := blockio.Class(cls)
					want := naive(proc, class)
					if got := c.AheadCharge(proc, class); got != want {
						t.Fatalf("%s: AheadCharge(%d,%v)=%v, oracle %v", op, proc, class, got, want)
					}
					ahead := c.ProcsAheadOf(proc, class)
					for cand := 0; cand <= nProcs; cand++ {
						if got, want := c.IsAheadOf(cand, proc, class), containsInt(ahead, cand); got != want {
							t.Fatalf("%s: IsAheadOf(%d,%d,%v)=%v, walk says %v",
								op, cand, proc, class, got, want)
						}
					}
				}
			}
		}

		var live []*blockio.Request
		steps := len(data) / 2
		if steps > 512 {
			steps = 512
		}
		for i := 0; i < steps*2; i += 2 {
			op, arg := data[i]%7, data[i+1]
			switch op {
			case 0: // submit (also applies ionice class/prio changes)
				r := &blockio.Request{Op: blockio.Read,
					Offset: int64(arg) * 8192, Size: 4096,
					Proc:     int(arg) % nProcs,
					Class:    blockio.Class(int(arg) / nProcs % 3),
					Priority: int(arg) / 18 % 8,
				}
				r.OnComplete = func(*blockio.Request) {}
				c.Submit(r)
				live = append(live, r)
				check("submit")
			case 1: // complete the oldest on-device IO
				dev.completeOne()
				check("complete")
			case 2: // remove a tracked request (late cancellation path)
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				c.Remove(live[j])
				live = append(live[:j], live[j+1:]...)
				check("remove")
			case 3: // charge predicted IO time
				c.AddProcCharge(int(arg)%nProcs, time.Duration(arg)*time.Millisecond/4)
				check("charge")
			case 4: // release predicted IO time (floors at zero)
				c.ReleaseProcCharge(int(arg)%nProcs, time.Duration(arg)*time.Millisecond/4)
				check("release")
			case 5: // advance virtual time (slice expiry on the next dispatch)
				eng.Schedule(time.Duration(arg%50)*time.Millisecond, func() {})
				eng.Run()
				check("advance")
			case 6: // cancel in place: dropped at its dispatch attempt
				if len(live) == 0 {
					continue
				}
				live[int(arg)%len(live)].Cancel()
				check("cancel")
			}
		}

		// Drain: every queued IO must dispatch (or drop) and complete.
		for {
			progressed := false
			for dev.completeOne() {
				progressed = true
			}
			if c.QueueLen() == 0 && len(dev.inflt) == 0 {
				break
			}
			if !progressed {
				t.Fatalf("stuck: %d queued, %d on device", c.QueueLen(), len(dev.inflt))
			}
		}
		check("drain")
		if c.InFlight() != 0 {
			t.Fatalf("InFlight = %d after drain", c.InFlight())
		}
	})
}
