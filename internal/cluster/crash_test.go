package cluster

import (
	"errors"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
)

func newSingleNodeCluster(t *testing.T) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(61, t.Name()+"-net"))
	return NewCluster(eng, net, 1, 1, diskNodeTemplate(false, 10000), sim.NewRNG(62, t.Name()))
}

// TestCrashDropsInFlightAndRefuses exercises the node-level crash contract
// directly: in-flight gets error out the moment Crash fires, new calls are
// refused until Revive, and the pooled per-get state survives the whole
// cycle (the race detector and repeated reuse would catch a double-free).
func TestCrashDropsInFlightAndRefuses(t *testing.T) {
	c := newSingleNodeCluster(t)
	n := c.Nodes[0]

	var inflightErr error
	inflightDone := false
	n.ServeGet(7, 0, func(err error) { inflightErr = err; inflightDone = true })
	c.Eng.RunFor(100 * time.Microsecond) // the IO is now in the storage stack
	if inflightDone {
		t.Fatal("get finished before the crash; pick a shorter warmup")
	}

	n.Crash()
	if !inflightDone {
		t.Fatal("in-flight get not aborted at crash time")
	}
	if !errors.Is(inflightErr, ErrNodeDown) {
		t.Fatalf("in-flight get got %v, want ErrNodeDown", inflightErr)
	}

	var refusedErr error
	n.ServeGet(8, 0, func(err error) { refusedErr = err })
	if !errors.Is(refusedErr, ErrNodeDown) {
		t.Fatalf("get on a down node got %v, want ErrNodeDown", refusedErr)
	}
	n.ServePutSLO(9, 0, func(err error) { refusedErr = err })
	if !errors.Is(refusedErr, ErrNodeDown) {
		t.Fatalf("put on a down node got %v, want ErrNodeDown", refusedErr)
	}
	if n.Refused() != 2 {
		t.Fatalf("Refused = %d, want 2", n.Refused())
	}
	c.Eng.RunFor(time.Second) // drain the aborted IO's completion

	n.Revive()
	for i := 0; i < 50; i++ { // pooled ctx/handle reuse after the abort cycle
		done := false
		n.ServeGet(int64(i), 0, func(err error) {
			if err != nil {
				t.Fatalf("get %d after revive: %v", i, err)
			}
			done = true
		})
		c.Eng.Run()
		if !done {
			t.Fatalf("get %d after revive never completed", i)
		}
	}
}

// TestCrashAbortsCancelableGet covers the handle path: the caller's handle
// stays usable (Cancel/Done) after the crash already aborted the get.
func TestCrashAbortsCancelableGet(t *testing.T) {
	c := newSingleNodeCluster(t)
	n := c.Nodes[0]
	var got error
	h := n.ServeGetCancelable(7, 0, func(err error) { got = err })
	c.Eng.RunFor(100 * time.Microsecond)
	n.Crash()
	if !errors.Is(got, ErrNodeDown) {
		t.Fatalf("cancelable get got %v, want ErrNodeDown", got)
	}
	h.Cancel() // must be a no-op against the recycled request
	h.Done()
	c.Eng.RunFor(time.Second)
}

// TestEveryStrategyVsCrashedPrimary runs each strategy against a replica
// set whose primary is down. None may hang; every strategy with a second
// replica to try must succeed, and Base (which has none) must surface
// ErrNodeDown rather than stalling.
func TestEveryStrategyVsCrashedPrimary(t *testing.T) {
	const key = 0
	cases := []struct {
		name    string
		make    func(c *Cluster) Strategy
		wantErr bool
	}{
		{"Base", func(c *Cluster) Strategy { return &BaseStrategy{C: c} }, true},
		{"AppTO", func(c *Cluster) Strategy { return &TimeoutStrategy{C: c, TO: 15 * time.Millisecond} }, false},
		{"Clone", func(c *Cluster) Strategy { return &CloneStrategy{C: c, RNG: sim.NewRNG(9, "clone")} }, false},
		{"Hedged", func(c *Cluster) Strategy { return &HedgedStrategy{C: c, HedgeAfter: 20 * time.Millisecond} }, false},
		{"Tied", func(c *Cluster) Strategy { return &TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied")} }, false},
		{"Snitch", func(c *Cluster) Strategy { return &SnitchStrategy{C: c} }, false},
		{"C3", func(c *Cluster) Strategy { return &C3Strategy{C: c} }, false},
		{"MittOS", func(c *Cluster) Strategy { return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond} }, false},
		{"MittOS-consistent", func(c *Cluster) Strategy {
			return &ConsistentMittOSStrategy{C: c, Deadline: 10 * time.Millisecond}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 3, true, 10000)
			primary := c.ReplicasFor(key)[0]
			c.Nodes[primary].Crash()
			s := tc.make(c)
			done := false
			var res GetResult
			s.Get(key, func(r GetResult) { res = r; done = true })
			c.Eng.RunFor(5 * time.Second)
			if !done {
				t.Fatal("get hung against a crashed primary")
			}
			if tc.wantErr {
				if !errors.Is(res.Err, ErrNodeDown) {
					t.Fatalf("err = %v, want ErrNodeDown", res.Err)
				}
				return
			}
			if res.Err != nil {
				t.Fatalf("err = %v, want failover to a live replica", res.Err)
			}
		})
	}
}

// TestEveryStrategyVsWholeSetDown: with all replicas down nothing can
// succeed, but nothing may hang either.
func TestEveryStrategyVsWholeSetDown(t *testing.T) {
	const key = 0
	cases := []struct {
		name string
		make func(c *Cluster) Strategy
	}{
		{"Base", func(c *Cluster) Strategy { return &BaseStrategy{C: c} }},
		{"AppTO", func(c *Cluster) Strategy { return &TimeoutStrategy{C: c, TO: 15 * time.Millisecond} }},
		{"Clone", func(c *Cluster) Strategy { return &CloneStrategy{C: c, RNG: sim.NewRNG(9, "clone")} }},
		{"Hedged", func(c *Cluster) Strategy { return &HedgedStrategy{C: c, HedgeAfter: 20 * time.Millisecond} }},
		{"Tied", func(c *Cluster) Strategy { return &TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied")} }},
		{"Snitch", func(c *Cluster) Strategy { return &SnitchStrategy{C: c} }},
		{"C3", func(c *Cluster) Strategy { return &C3Strategy{C: c} }},
		{"MittOS", func(c *Cluster) Strategy { return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond} }},
		{"MittOS+hint", func(c *Cluster) Strategy {
			return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
		}},
		{"MittOS-consistent", func(c *Cluster) Strategy {
			return &ConsistentMittOSStrategy{C: c, Deadline: 10 * time.Millisecond}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 3, true, 10000)
			for _, n := range c.Nodes {
				n.Crash()
			}
			s := tc.make(c)
			done := false
			var res GetResult
			s.Get(key, func(r GetResult) { res = r; done = true })
			c.Eng.RunFor(5 * time.Second)
			if !done {
				t.Fatal("get hung with the whole replica set down")
			}
			if !errors.Is(res.Err, ErrNodeDown) {
				t.Fatalf("err = %v, want ErrNodeDown", res.Err)
			}
		})
	}
}

// TestMittOSWaitHintSkipsCrashedNode forces every live replica to reject
// (100% false-positive injection) while one replica is crashed: the
// wait-hint last-ditch retry must target a live node, not the crashed one
// whose "predicted wait" was never reported.
func TestMittOSWaitHintSkipsCrashedNode(t *testing.T) {
	c := newTestCluster(t, 3, true, 10000)
	replicas := c.ReplicasFor(0)
	rng := sim.NewRNG(11, "fp")
	for _, r := range replicas {
		c.Nodes[r].Mitt.SetErrorInjection(0, 1.0, rng) // reject every SLO'd IO
	}
	crashed := replicas[1]
	c.Nodes[crashed].Crash()

	s := &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
	done := false
	var res GetResult
	s.Get(0, func(r GetResult) { res = r; done = true })
	c.Eng.RunFor(5 * time.Second)
	if !done {
		t.Fatal("wait-hint get hung")
	}
	if res.Err != nil {
		t.Fatalf("err = %v; the last-ditch try has no deadline and must succeed", res.Err)
	}
	if s.LastDitch != 1 {
		t.Fatalf("LastDitch = %d, want 1", s.LastDitch)
	}
	if got := c.Nodes[crashed].Refused(); got != 1 {
		t.Fatalf("crashed node refused %d calls, want exactly the one probe", got)
	}
}

// TestCloneSingleLiveReplica: with one live replica a clone pair is
// impossible; the old code panicked in RNG.Intn(0). Now it degrades to a
// single copy.
func TestCloneSingleLiveReplica(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	replicas := c.ReplicasFor(0)
	c.Nodes[replicas[0]].Crash()
	c.Nodes[replicas[2]].Crash()
	s := &CloneStrategy{C: c, RNG: sim.NewRNG(9, "clone")}
	done := false
	var res GetResult
	s.Get(0, func(r GetResult) { res = r; done = true })
	c.Eng.Run()
	if !done || res.Err != nil {
		t.Fatalf("single-survivor clone: done=%v err=%v", done, res.Err)
	}
	if res.Tries != 1 {
		t.Fatalf("tries = %d, want 1 (no clone pair possible)", res.Tries)
	}
	if got := c.Nodes[replicas[1]].Served(); got != 1 {
		t.Fatalf("survivor served %d, want 1", got)
	}
}

// TestTiedSingleLiveReplica is the same degradation for tied requests.
func TestTiedSingleLiveReplica(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	replicas := c.ReplicasFor(0)
	c.Nodes[replicas[0]].Crash()
	c.Nodes[replicas[2]].Crash()
	s := &TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied")}
	done := false
	var res GetResult
	s.Get(0, func(r GetResult) { res = r; done = true })
	c.Eng.Run()
	if !done || res.Err != nil {
		t.Fatalf("single-survivor tied: done=%v err=%v", done, res.Err)
	}
	if res.Tries != 1 {
		t.Fatalf("tries = %d, want 1 (no tied pair possible)", res.Tries)
	}
}

// TestSingleNodeClusterStrategies: an R=1 cluster offers no second replica
// at all — Clone and Tied must not draw from an empty range (the
// RNG.Intn(0) panic), they send one plain copy.
func TestSingleNodeClusterStrategies(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(61, "r1-net"))
	c := NewCluster(eng, net, 1, 1, diskNodeTemplate(false, 10000), sim.NewRNG(62, "r1"))
	for _, s := range []Strategy{
		&CloneStrategy{C: c, RNG: sim.NewRNG(9, "clone")},
		&TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied")},
	} {
		done := false
		var res GetResult
		s.Get(0, func(r GetResult) { res = r; done = true })
		eng.Run()
		if !done || res.Err != nil || res.Tries != 1 {
			t.Fatalf("%s on R=1: done=%v err=%v tries=%d", s.Name(), done, res.Err, res.Tries)
		}
	}
}

// TestHedgedTriesCountsHedgedCopy is the regression test for the Tries
// accounting bug: when the hedge fired, the result must report 2 tries no
// matter which copy wins (the old code reported 1 when the primary won).
func TestHedgedTriesCountsHedgedCopy(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	s := &HedgedStrategy{C: c, HedgeAfter: time.Microsecond}
	done := false
	var res GetResult
	s.Get(7, func(r GetResult) { res = r; done = true })
	c.Eng.Run()
	if !done || res.Err != nil {
		t.Fatalf("hedged get: done=%v err=%v", done, res.Err)
	}
	if s.Hedges != 1 {
		t.Fatalf("Hedges = %d, want 1 (HedgeAfter is 1µs)", s.Hedges)
	}
	if res.Tries != 2 {
		t.Fatalf("Tries = %d, want 2: the hedge fired, two IOs were issued", res.Tries)
	}
	if s.WastedIOs != 1 {
		t.Fatalf("WastedIOs = %d, want 1 (the losing copy ran to completion)", s.WastedIOs)
	}
}

// TestAppTOCancelsAbandonedIO: the timeout fires while the abandoned IO is
// already device-resident (beyond revocation), so it completes and is
// counted as wasted; the retry wins on another replica.
func TestAppTOCancelsAbandonedIO(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	primary := c.ReplicasFor(0)[0]
	st := noise.NewSteady(c.Eng, c.Nodes[primary].NoiseSink(), sim.NewRNG(5, "noise"),
		blockio.Read, 1<<20, 12, blockio.ClassBestEffort, 4, 99, 500<<30)
	st.Start()
	c.Eng.RunFor(100 * time.Millisecond)
	s := &TimeoutStrategy{C: c, TO: 15 * time.Millisecond}
	done := false
	var res GetResult
	s.Get(0, func(r GetResult) { res = r; done = true })
	c.Eng.RunFor(3 * time.Second)
	st.Stop()
	c.Eng.RunFor(3 * time.Second) // drain: any abandoned IO completes here
	if !done || res.Err != nil {
		t.Fatalf("AppTO get: done=%v err=%v", done, res.Err)
	}
	if res.Tries < 2 || s.Retries == 0 {
		t.Fatalf("no retry under saturation (tries=%d retries=%d)", res.Tries, s.Retries)
	}
	// Every abandoned attempt either had its IO revoked in the scheduler
	// queues (no waste) or it ran to completion (wasted); it can never be
	// counted both ways.
	if s.WastedIOs > s.Retries {
		t.Fatalf("WastedIOs %d > Retries %d", s.WastedIOs, s.Retries)
	}
}

// TestAppTOWastedIOWhenDeviceResident pins the wasted-IO path: an idle disk
// dispatches the IO immediately, so a 1ms timeout cannot revoke it and the
// abandoned IO must complete and count as wasted.
func TestAppTOWastedIOWhenDeviceResident(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	s := &TimeoutStrategy{C: c, TO: time.Millisecond}
	done := false
	var res GetResult
	s.Get(0, func(r GetResult) { res = r; done = true })
	c.Eng.Run()
	if !done || res.Err != nil {
		t.Fatalf("AppTO get: done=%v err=%v", done, res.Err)
	}
	if s.Retries == 0 {
		t.Fatal("a 1ms timeout must beat a cold disk read")
	}
	if s.WastedIOs == 0 {
		t.Fatal("the abandoned device-resident IO must be counted as wasted")
	}
}

// TestEIOPropagatesToCaller: device-level error injection must surface as
// the get's verdict at the client, not vanish in the completion chain.
func TestEIOPropagatesToCaller(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	primary := c.ReplicasFor(0)[0]
	c.Nodes[primary].Disk.SetErrorInjection(1.0, sim.NewRNG(3, "eio"))
	s := &BaseStrategy{C: c}
	done := false
	var res GetResult
	s.Get(0, func(r GetResult) { res = r; done = true })
	c.Eng.Run()
	if !done {
		t.Fatal("get hung")
	}
	if !errors.Is(res.Err, blockio.ErrIO) {
		t.Fatalf("err = %v, want ErrIO", res.Err)
	}
}

// TestFaultAdapterRoutesFaults spot-checks the Injector seam end to end.
func TestFaultAdapterRoutesFaults(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	a := NewFaultAdapter(c, sim.NewRNG(17, "faults"))

	a.FailSlow(1, 8)
	if got := c.Nodes[1].Disk.Degradation(); got != 8 {
		t.Fatalf("node 1 degradation = %g, want 8", got)
	}
	if got := c.Nodes[0].Disk.Degradation(); got != 1 {
		t.Fatalf("node 0 degradation = %g, want 1", got)
	}
	a.FailSlow(-1, 2)
	for i, n := range c.Nodes {
		if got := n.Disk.Degradation(); got != 2 {
			t.Fatalf("node %d degradation = %g after AllNodes, want 2", i, got)
		}
	}
	a.FailSlow(-1, 1)

	a.Crash(2)
	if !c.Nodes[2].Down() {
		t.Fatal("Crash(2) did not take the node down")
	}
	a.Revive(2)
	if c.Nodes[2].Down() {
		t.Fatal("Revive(2) did not bring the node back")
	}

	a.NetDegrade(200*time.Microsecond, 50*time.Microsecond)
	if !c.Net.Degraded() {
		t.Fatal("network not degraded")
	}
	a.NetRestore()
	if c.Net.Degraded() {
		t.Fatal("network still degraded after restore")
	}
}
