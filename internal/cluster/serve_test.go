package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
)

// serveEntry is one node or cluster entry point under characterization.
// issue starts a call to node for key; done receives its verdict, and is nil
// for the one-way put, which has none.
type serveEntry struct {
	name  string
	issue func(c *Cluster, node int, key int64, done func(error))
}

// serveEntries cycles through every way a call reaches the serve path.
func serveEntries() []serveEntry {
	const getSLO, putSLO = 8 * time.Millisecond, 3 * time.Millisecond
	return []serveEntry{
		{"ServeGet/0", func(c *Cluster, node int, key int64, done func(error)) {
			c.Nodes[node].ServeGet(key, 0, done)
		}},
		{"ServeGet/8ms", func(c *Cluster, node int, key int64, done func(error)) {
			c.Nodes[node].ServeGet(key, getSLO, done)
		}},
		{"ServeGetCancelable", func(c *Cluster, node int, key int64, done func(error)) {
			h := c.Nodes[node].ServeGetCancelable(key, 0, done)
			c.Eng.After(time.Millisecond, func() {
				h.Cancel()
				h.Done()
			})
		}},
		{"ServePutSLO/0", func(c *Cluster, node int, key int64, done func(error)) {
			c.Nodes[node].ServePutSLO(key, 0, done)
		}},
		{"ServePutSLO/3ms", func(c *Cluster, node int, key int64, done func(error)) {
			c.Nodes[node].ServePutSLO(key, putSLO, done)
		}},
		{"ServePutDurable", func(c *Cluster, node int, key int64, done func(error)) {
			c.Nodes[node].ServePutDurable(key, 0, done)
		}},
		{"ReplicaCall", func(c *Cluster, node int, key int64, done func(error)) {
			c.ReplicaCall(node, key, getSLO, done)
		}},
		{"PutCall", func(c *Cluster, node int, key int64, done func(error)) {
			c.PutCall(node, key, putSLO, done)
		}},
		{"PutOneWay", func(c *Cluster, node int, key int64, _ func(error)) {
			c.PutOneWay(node, key)
		}},
	}
}

// serveLeg is one fleet shape of the serve characterization.
type serveLeg struct {
	name string
	mitt bool
	cpu  bool // share a 2-core CPU pool at 200µs per stage
}

// runServeLeg drives every entry point over a 5-node, R=3 fleet with steady
// 1 MB read noise on two nodes and node 1 down from 80 to 180 ms: 200 calls
// 1.2 ms apart on seeded nodes and keys, then a 10 s drain. Calls still
// unfinished after the drain are the ones ReclaimStranded must harvest, so
// the rendering tells them apart from calls that finished in the run. Each
// node's serve contexts out of the pool must be exactly the ones the
// harvest reclaims, and after it every context must be back, or t fails;
// the rendering leaves the pool counts out.
func runServeLeg(t *testing.T, leg serveLeg) string {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(81, "serve-net"))
	tmpl := diskNodeTemplate(leg.mitt, 2000)
	if leg.cpu {
		tmpl.CPU = NewCPUPool(eng, 2)
		tmpl.CPUPerOp = 200 * time.Microsecond
	}
	c := NewCluster(eng, net, 5, 3, tmpl, sim.NewRNG(82, "serve-nodes"))
	var streams []*noise.Steady
	for _, i := range []int{1, 3} {
		st := noise.NewSteady(eng, c.Nodes[i].NoiseSink(), sim.NewRNG(int64(83+i), "serve-noise"),
			blockio.Read, 1<<20, 4, blockio.ClassBestEffort, 4, 99, 500<<30)
		st.Start()
		streams = append(streams, st)
	}
	eng.After(80*time.Millisecond, func() { c.Nodes[1].Crash() })
	eng.After(180*time.Millisecond, func() { c.Nodes[1].Revive() })

	const calls = 200
	entries := serveEntries()
	lines := make([]string, calls)
	harvest := false // set once the drain is over: finishes now come from ReclaimStranded
	rng := sim.NewRNG(84, "serve-calls")
	for i := 0; i < calls; i++ {
		i := i
		eng.After(time.Duration(i)*1200*time.Microsecond, func() {
			e := entries[i%len(entries)]
			node, key := rng.Intn(len(c.Nodes)), rng.Int63n(2000)
			head := fmt.Sprintf("%3d node=%d key=%-4d %-18s", i, node, key, e.name)
			if e.name == "PutOneWay" {
				lines[i] = head + " one-way"
				e.issue(c, node, key, nil)
				return
			}
			start := eng.Now()
			e.issue(c, node, key, func(err error) {
				if lines[i] != "" {
					panic(fmt.Sprintf("call %d finished twice", i))
				}
				if harvest {
					lines[i] = fmt.Sprintf("%s stranded, reclaimed err=%v", head, err)
					return
				}
				lines[i] = fmt.Sprintf("%s lat=%v err=%v", head, eng.Now().Sub(start), err)
			})
		})
	}
	eng.RunFor(260 * time.Millisecond)
	for _, st := range streams {
		st.Stop()
	}
	eng.RunFor(10 * time.Second)

	harvest = true
	stranded := make([]int, len(c.Nodes))
	for i, n := range c.Nodes {
		out := n.pools.serves.InUse()
		stranded[i] = n.ReclaimStranded()
		if out != stranded[i] {
			t.Errorf("%s: node %d has %d serves out of the pool but strands %d", leg.name, i, out, stranded[i])
		}
	}
	checkPoolsDrained(t, leg.name, c)

	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", leg.name)
	for i, l := range lines {
		if l == "" {
			l = fmt.Sprintf("%3d unfinished", i)
		}
		b.WriteString(l + "\n")
	}
	for i, n := range c.Nodes {
		fmt.Fprintf(&b, "node %d: served=%d rejected=%d refused=%d stranded=%d\n",
			i, n.Served(), n.Rejected(), n.Refused(), stranded[i])
	}
	fmt.Fprintf(&b, "net: sent=%d\n", net.Sent())
	return b.String()
}

// TestServeGolden pins the node serve path through every entry point: local
// gets with and without an SLO, a revoked cancelable get, the three put
// flavours, and the cluster's replica, put and one-way calls, on vanilla and
// Mitt fleets with and without the shared-CPU stages, under noise and a
// crash window. Regenerate with -update after an intended behaviour change.
func TestServeGolden(t *testing.T) {
	var b strings.Builder
	for _, leg := range []serveLeg{
		{name: "vanilla", mitt: false},
		{name: "vanilla cpu", mitt: false, cpu: true},
		{name: "mitt", mitt: true},
		{name: "mitt cpu", mitt: true, cpu: true},
	} {
		b.WriteString(runServeLeg(t, leg))
	}
	got := b.String()
	path := filepath.Join("testdata", "serve.golden")
	if *updateStrategies {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
