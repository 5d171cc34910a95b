package cluster

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/noise"
	"mittos/internal/sim"
)

// TestServeReuseAfterCancel exercises the request pool's revocation path:
// cancel a queued serve, then keep issuing gets through the same node. A
// double release or a use-after-recycle panics (generation guard) or
// corrupts a later get's result.
func TestServeReuseAfterCancel(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	n := c.Nodes[0]

	// Queue depth so cancels land while requests still sit in the
	// scheduler (a busy spindle keeps the queue non-empty).
	st := noise.NewSteady(c.Eng, n.NoiseSink(), sim.NewRNG(5, "noise"),
		blockio.Read, 1<<20, 10, blockio.ClassBestEffort, 4, 99, 500<<30)
	st.Start()
	c.Eng.RunFor(50 * time.Millisecond)

	canceled, completed := 0, 0
	for i := 0; i < 50; i++ {
		key := int64(i % 100)
		if i%2 == 0 {
			h := n.ServeGetCancelable(key, 0, func(err error) {
				if err == nil {
					completed++
				}
			})
			// Cancel immediately: the IO is still queued behind the noise.
			h.Cancel()
			h.Done()
			canceled++
			// Cancel again after release: the generation guard must make
			// this a no-op rather than revoking a recycled request.
			h.Cancel()
		} else {
			n.ServeGet(key, 0, func(err error) {
				if err == nil {
					completed++
				}
			})
		}
		c.Eng.RunFor(5 * time.Millisecond)
	}
	st.Stop()
	c.Eng.RunFor(10 * time.Second)

	// Every non-canceled get must complete; canceled ones may or may not,
	// depending on whether the cancel beat dispatch.
	if completed < 25 {
		t.Fatalf("completed %d gets, want at least the 25 uncanceled ones", completed)
	}
	_ = canceled
}

// TestTiedRevokeThenComplete drives the tied-request protocol until losers
// are being revoked while winners complete, then verifies the node still
// serves correctly — i.e. the revoked terminal released each pooled
// request exactly once and recycling did not corrupt later IOs.
func TestTiedRevokeThenComplete(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	busy := c.ReplicasFor(0)[0]
	st := noise.NewSteady(c.Eng, c.Nodes[busy].NoiseSink(), sim.NewRNG(5, "noise"),
		blockio.Read, 1<<20, 10, blockio.ClassBestEffort, 4, 99, 500<<30)
	st.Start()
	c.Eng.RunFor(100 * time.Millisecond)

	s := &TiedStrategy{C: c, RNG: sim.NewRNG(3, "tied"), Delay: time.Millisecond}
	done := 0
	for i := 0; i < 30; i++ {
		s.Get(0, func(r GetResult) {
			if r.Err != nil {
				t.Fatalf("tied get failed: %v", r.Err)
			}
			done++
		})
		c.Eng.RunFor(50 * time.Millisecond)
	}
	st.Stop()
	c.Eng.RunFor(5 * time.Second)

	if done != 30 {
		t.Fatalf("completed %d of 30 tied gets", done)
	}
	if s.Cancelled == 0 {
		t.Fatal("no sibling revocations happened; the revoke-then-complete path was not exercised")
	}

	// The pool must still be coherent: a fresh burst of plain gets on the
	// previously-busy node completes cleanly on recycled requests.
	after := 0
	for i := 0; i < 20; i++ {
		c.Nodes[busy].ServeGet(int64(i), 0, func(err error) {
			if err == nil {
				after++
			}
		})
	}
	c.Eng.RunFor(5 * time.Second)
	if after != 20 {
		t.Fatalf("post-revocation gets completed %d of 20", after)
	}
}

// TestTiedTeardownReleasesHandles drives the teardown harvest against a
// tied pair whose copies are both still queued: ReclaimStranded revokes
// them, and both revocation handles must go back to the pool rather than
// wait for a cancel hop that the engine reset discards.
func TestTiedTeardownReleasesHandles(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	for _, r := range c.ReplicasFor(0) {
		st := noise.NewSteady(c.Eng, c.Nodes[r].NoiseSink(), sim.NewRNG(int64(5+r), "noise"),
			blockio.Read, 1<<20, 10, blockio.ClassBestEffort, 4, 99, 500<<30)
		st.Start()
	}
	c.Eng.RunFor(100 * time.Millisecond)

	s := &TiedStrategy{C: c, RNG: sim.NewRNG(3, "tied"), Delay: time.Millisecond}
	done := false
	s.Get(0, func(GetResult) { done = true })
	c.Eng.RunFor(3 * time.Millisecond) // both copies have landed and queued
	if done {
		t.Fatal("tied get finished before the harvest; the noise is too light")
	}
	if out := handlesInUse(c); out != 2 {
		t.Fatalf("%d revocation handles out before the harvest, want the 2 tied copies'", out)
	}
	reclaimed := 0
	for _, n := range c.Nodes {
		reclaimed += n.ReclaimStranded()
	}
	if reclaimed != 2 {
		t.Fatalf("reclaimed %d stranded serves, want the 2 tied copies", reclaimed)
	}
	if out := handlesInUse(c); out != 0 {
		t.Fatalf("%d of 2 revocation handles did not come back to the pool", out)
	}
}

// handlesInUse counts the revocation handles out of the pools across the
// fleet; nodes built without a shared Pools keep their own.
func handlesInUse(c *Cluster) int {
	n := 0
	for _, node := range c.Nodes {
		n += node.pools.handles.InUse()
	}
	return n
}

// checkPoolsDrained fails t unless every context the fleet took from its
// pools is back: the cluster's ops, attempts and calls, and each node's
// serve contexts and revocation handles.
func checkPoolsDrained(t *testing.T, leg string, c *Cluster) {
	t.Helper()
	p := c.pools
	if ops, atts, calls := p.ops.InUse(), p.attempts.InUse(), p.calls.InUse(); ops != 0 || atts != 0 || calls != 0 {
		t.Errorf("%s: %d ops, %d attempts and %d calls still out of the cluster's pools", leg, ops, atts, calls)
	}
	for i, n := range c.Nodes {
		if serves, handles := n.pools.serves.InUse(), n.pools.handles.InUse(); serves != 0 || handles != 0 {
			t.Errorf("%s: node %d has %d serves and %d handles still out of its pools", leg, i, serves, handles)
		}
	}
}
