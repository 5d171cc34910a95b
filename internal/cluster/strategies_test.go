package cluster

import (
	"flag"
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

var updateStrategies = flag.Bool("update", false, "rewrite testdata/strategies.golden from this run")

// charIssue issues one request of a characterization leg; done receives the
// request's rendered result.
type charIssue func(key int64, done func(string))

// charLeg is one strategy under characterization: mk builds it on the leg's
// fleet and returns its issue function and a renderer for its counters.
type charLeg struct {
	name string
	mk   func(c *Cluster) (charIssue, func() string)
}

func getIssue(s Strategy) charIssue {
	return func(key int64, done func(string)) {
		s.Get(key, func(r GetResult) {
			done(fmt.Sprintf("lat=%v tries=%d err=%v", r.Latency, r.Tries, r.Err))
		})
	}
}

func putIssue(s PutStrategy) charIssue {
	return func(key int64, done func(string)) {
		s.Put(key, func(r PutResult) {
			done(fmt.Sprintf("lat=%v acks=%d copies=%d err=%v", r.Latency, r.Acks, r.Copies, r.Err))
		})
	}
}

func noCounters() string { return "" }

func charLegs() []charLeg {
	const to = 10 * time.Millisecond
	return []charLeg{
		{"get Base", func(c *Cluster) (charIssue, func() string) {
			return getIssue(&BaseStrategy{C: c}), noCounters
		}},
		{"get AppTO", func(c *Cluster) (charIssue, func() string) {
			s := &TimeoutStrategy{C: c, TO: to}
			return getIssue(s), func() string { return fmt.Sprintf("retries=%d wasted=%d", s.Retries, s.WastedIOs) }
		}},
		{"get Clone", func(c *Cluster) (charIssue, func() string) {
			s := &CloneStrategy{C: c, RNG: sim.NewRNG(75, "char-clone")}
			return getIssue(s), func() string { return fmt.Sprintf("wasted=%d", s.WastedIOs) }
		}},
		{"get Hedged", func(c *Cluster) (charIssue, func() string) {
			s := &HedgedStrategy{C: c, HedgeAfter: to}
			return getIssue(s), func() string { return fmt.Sprintf("hedges=%d wasted=%d", s.Hedges, s.WastedIOs) }
		}},
		{"get Tied", func(c *Cluster) (charIssue, func() string) {
			s := &TiedStrategy{C: c, RNG: sim.NewRNG(75, "char-tied")}
			return getIssue(s), func() string { return fmt.Sprintf("cancelled=%d wasted=%d", s.Cancelled, s.WastedIOs) }
		}},
		{"get Snitch", func(c *Cluster) (charIssue, func() string) {
			return getIssue(&SnitchStrategy{C: c}), noCounters
		}},
		{"get C3", func(c *Cluster) (charIssue, func() string) {
			return getIssue(&C3Strategy{C: c}), noCounters
		}},
		{"get MittOS", func(c *Cluster) (charIssue, func() string) {
			s := &MittOSStrategy{C: c, Deadline: 8 * time.Millisecond}
			return getIssue(s), func() string { return fmt.Sprintf("failovers=%d lastditch=%d", s.Failovers, s.LastDitch) }
		}},
		{"get MittOS+hint", func(c *Cluster) (charIssue, func() string) {
			s := &MittOSStrategy{C: c, Deadline: 8 * time.Millisecond, UseWaitHint: true}
			return getIssue(s), func() string { return fmt.Sprintf("failovers=%d lastditch=%d", s.Failovers, s.LastDitch) }
		}},
		{"get MittOS-consistent", func(c *Cluster) (charIssue, func() string) {
			// Seed the session from the version layout runCharLeg applies,
			// so busy and crashed primaries meet fresh and stale siblings.
			s := &ConsistentMittOSStrategy{C: c, Deadline: 8 * time.Millisecond, session: map[int64]uint64{}}
			for k := int64(0); k < charKeys; k++ {
				s.session[k] = uint64(2 - k%3) // 2, 1, 0: see runCharLeg
			}
			return getIssue(s), func() string {
				return fmt.Sprintf("failovers=%d staleskips=%d forced=%d", s.Failovers, s.StaleSkips, s.ForcedToWait)
			}
		}},
		{"put Base", func(c *Cluster) (charIssue, func() string) {
			s := &BasePut{C: c}
			return putIssue(s), func() string { return putCounterLine(&s.PutCounters) }
		}},
		{"put AppTO", func(c *Cluster) (charIssue, func() string) {
			s := &TimeoutPut{C: c, TO: to}
			return putIssue(s), func() string { return putCounterLine(&s.PutCounters) + fmt.Sprintf(" retries=%d", s.Retries) }
		}},
		{"put Hedged", func(c *Cluster) (charIssue, func() string) {
			s := &HedgedPut{C: c, HedgeAfter: to}
			return putIssue(s), func() string { return putCounterLine(&s.PutCounters) + fmt.Sprintf(" hedges=%d", s.Hedges) }
		}},
		{"put MittOS", func(c *Cluster) (charIssue, func() string) {
			s := &MittOSPut{C: c, Deadline: 3 * time.Millisecond, UseWaitHint: true}
			return putIssue(s), func() string {
				return putCounterLine(&s.PutCounters) + fmt.Sprintf(" failovers=%d lastditch=%d", s.Failovers, s.LastDitch)
			}
		}},
	}
}

// charKeys is the characterization keyspace: small, so keys repeat.
const charKeys = 40

func putCounterLine(pc *PutCounters) string {
	return fmt.Sprintf("puts=%d copies=%d acks=%d busy=%d down=%d errs=%d quorums=%d failed=%d wasted=%d",
		pc.Puts, pc.CopiesSent, pc.Acks, pc.Busy, pc.NodeDown, pc.Errors, pc.Quorums, pc.Failed, pc.WastedWrites)
}

// runCharLeg drives one strategy over a small noisy MittOS fleet (5 nodes,
// R=3) with one crash-then-revive window: open-loop requests every 1.5ms on
// seeded keys, three nodes under steady noise (so some replica sets are busy
// throughout), and a key-version layout that gives the consistent strategy
// both fresh and stale alternatives.
func runCharLeg(t *testing.T, leg charLeg) string {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(71, "char-net"))
	c := NewCluster(eng, net, 5, 3, diskNodeTemplate(true, 2000), sim.NewRNG(72, "char-nodes"))
	var streams []*noise.Steady
	for _, i := range []int{0, 3, 4} {
		st := noise.NewSteady(eng, c.Nodes[i].NoiseSink(), sim.NewRNG(int64(73+i), "char-noise"),
			blockio.Read, 1<<20, 4, blockio.ClassBestEffort, 4, 99, 500<<30)
		st.Start()
		streams = append(streams, st)
	}
	for k := int64(0); k < charKeys; k++ {
		reps := c.ReplicasFor(k)
		switch k % 3 {
		case 0: // only the primary has the newest version
			c.Nodes[reps[0]].Store.ApplyReplicated(k, 2)
		case 1: // replication caught up everywhere
			for _, r := range reps {
				c.Nodes[r].Store.ApplyReplicated(k, 1)
			}
		}
	}
	eng.After(80*time.Millisecond, func() { c.Nodes[1].Crash() })
	eng.After(180*time.Millisecond, func() { c.Nodes[1].Revive() })

	issue, counters := leg.mk(c)
	const requests = 160
	lines := make([]string, requests)
	keyRNG := sim.NewRNG(74, "char-keys")
	for i := 0; i < requests; i++ {
		i := i
		eng.After(time.Duration(i)*1500*time.Microsecond, func() {
			key := keyRNG.Int63n(charKeys)
			issue(key, func(res string) {
				if lines[i] != "" {
					panic(fmt.Sprintf("request %d finished twice", i))
				}
				lines[i] = fmt.Sprintf("%3d key=%-3d %s", i, key, res)
			})
		})
	}
	eng.RunFor(260 * time.Millisecond)
	for _, st := range streams {
		st.Stop()
	}
	eng.RunFor(10 * time.Second)

	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", leg.name)
	for i, l := range lines {
		if l == "" {
			l = fmt.Sprintf("%3d unfinished", i)
		}
		b.WriteString(l + "\n")
	}
	fmt.Fprintf(&b, "counters: %s\n", counters())
	for i, n := range c.Nodes {
		fmt.Fprintf(&b, "node %d: served=%d rejected=%d refused=%d\n", i, n.Served(), n.Rejected(), n.Refused())
	}
	fmt.Fprintf(&b, "net: sent=%d\n", net.Sent())
	for i, n := range c.Nodes {
		if k := n.ReclaimStranded(); k != 0 {
			t.Errorf("%s: node %d strands %d serves after the drain", leg.name, i, k)
		}
	}
	checkPoolsDrained(t, leg.name, c)
	return b.String()
}

// TestStrategiesGolden pins every client strategy's per-request results and
// counters on one noisy fleet with a crash window, covering the paths no
// experiment golden reaches: MittOS-consistent at all, the put handoffs
// under a crash, and MittOS without the wait hint against a crashed
// replica. Regenerate with -update after an intended behaviour change.
func TestStrategiesGolden(t *testing.T) {
	var b strings.Builder
	for _, leg := range charLegs() {
		b.WriteString(runCharLeg(t, leg))
	}
	got := b.String()
	path := filepath.Join("testdata", "strategies.golden")
	if *updateStrategies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
