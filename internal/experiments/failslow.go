package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/faults"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// The cluster's fault adapter must satisfy the faults seam; checked here so
// neither package imports the other just for the assertion.
var _ faults.Injector = (*cluster.FaultAdapter)(nil)

// defaultFailslowSchedule is the composite degradation scenario, scaled to
// the run length d: a fail-slow device that also throws occasional EIOs
// (§8.1's "hardware degrades" case — the profile no longer matches
// reality), a fail-stop crash with a restart, a network brown-out, and a
// miscalibrated predictor (§7.6's accuracy hazard made structural).
func defaultFailslowSchedule(d time.Duration) *faults.Schedule {
	s := &faults.Schedule{}
	s.Add(faults.Event{Kind: faults.FailSlow, Node: 1, At: d / 5, For: 2 * d / 5, Factor: 8})
	s.Add(faults.Event{Kind: faults.IOErrors, Node: 1, At: d / 5, For: 2 * d / 5, Factor: 0.02})
	s.Add(faults.Event{Kind: faults.Crash, Node: 2, At: 2 * d / 5, For: d / 4})
	s.Add(faults.Event{Kind: faults.NetDegrade, At: 7 * d / 10, For: d / 10,
		Extra: 200 * time.Microsecond, Jitter: 50 * time.Microsecond})
	s.Add(faults.Event{Kind: faults.Miscalibrate, Node: 3, At: d / 2, For: 2 * d / 5,
		Extra: 2 * time.Millisecond})
	return s
}

// parseFaults parses a fault schedule for a fleet of the given size: a
// string that does not parse, or an event that names a node outside the
// fleet, is an error.
func parseFaults(schedule string, nodes int) (*faults.Schedule, error) {
	s, err := faults.ParseSchedule(schedule)
	if err != nil {
		return nil, err
	}
	for _, e := range s.Events {
		if e.Node >= nodes {
			return nil, fmt.Errorf("fault event targets node %d but the fleet has %d nodes", e.Node, nodes)
		}
	}
	return s, nil
}

// CheckFaults reports whether schedule is a usable failslow fault schedule
// at the given scale: empty (the built-in scenario), or one that parses and
// names node=all or nodes of the fleet (9 nodes quick, 20 full). Run checks
// it for every id.
func CheckFaults(schedule string, quick bool) error {
	if schedule == "" {
		return nil
	}
	_, err := parseFaults(schedule, RunConfig{Quick: quick}.options().Nodes)
	return err
}

// wastedIOs reads a strategy's wasted-IO counter, where it keeps one:
// abandoned, duplicated, or revoked-too-late IOs the cluster executed and
// threw away.
func wastedIOs(s cluster.Strategy) uint64 {
	switch t := s.(type) {
	case *cluster.TimeoutStrategy:
		return t.WastedIOs
	case *cluster.CloneStrategy:
		return t.WastedIOs
	case *cluster.HedgedStrategy:
		return t.WastedIOs
	case *cluster.TiedStrategy:
		return t.WastedIOs
	}
	return 0
}

// Failslow runs the full strategy matrix through a multi-fault degradation
// scenario and reports how gracefully each one degrades: per-strategy
// latency CDFs plus a table of tail latencies, user-visible errors, and
// wasted IOs. The schedule defaults to defaultFailslowSchedule scaled to
// the run length; Options.Faults overrides it with a parsed config string
// (the mittbench -faults flag).
func Failslow(opt Options) *Result {
	res := &Result{ID: "failslow", Title: "Graceful degradation under injected faults (§7.6, §8.1)"}

	sched := defaultFailslowSchedule(opt.Duration)
	if opt.Faults != "" {
		s, err := parseFaults(opt.Faults, opt.Nodes)
		if err != nil {
			panic(fmt.Sprintf("failslow: bad fault schedule: %v", err)) // Run rejects it first
		}
		sched = s
	}
	res.Notes = append(res.Notes, "fault schedule: "+sched.String())

	// The quiet (fault-free, noise-free) baseline p95 sets the deadline and
	// timeout knobs; the faults themselves are this experiment's noise.
	p95, _ := baselineP95(opt, nil, "baseline")
	res.Notes = append(res.Notes, fmt.Sprintf("deadline/timeout/hedge trigger = quiet-Base p95 = %v", p95))

	runs := []struct {
		name string
		mitt bool
		mk   func(c *cluster.Cluster) cluster.Strategy
	}{
		{"Base", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.BaseStrategy{C: c}
		}},
		{"AppTO", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TimeoutStrategy{C: c, TO: p95}
		}},
		{"Clone", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.CloneStrategy{C: c, RNG: sim.NewRNG(opt.Seed, "clone")}
		}},
		{"Hedged", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.HedgedStrategy{C: c, HedgeAfter: p95}
		}},
		{"Tied", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TiedStrategy{C: c, RNG: sim.NewRNG(opt.Seed, "tied")}
		}},
		{"Snitch", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.SnitchStrategy{C: c}
		}},
		{"C3", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.C3Strategy{C: c}
		}},
		{"MittOS", true, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.MittOSStrategy{C: c, Deadline: p95, UseWaitHint: true}
		}},
	}

	outs := make([]legOut, len(runs))
	wasted := make([]uint64, len(runs))
	var ls legs
	for i, r := range runs {
		i, r := i, r
		ls.add(func(a *legArena) {
			f := a.newFleet(opt, fleetDisk, r.mitt, "failslow-"+r.name)
			ad := cluster.NewFaultAdapter(f.c, sim.NewRNG(opt.Seed, "faults-"+r.name))
			sched.Start(f.eng, ad)
			strat := r.mk(f.c)
			outs[i] = f.runClients(opt, strat, 1, getLat)
			wasted[i] = wastedIOs(strat)
		})
	}
	runLegs(opt.Workers, ls)

	tb := &stats.Table{Header: []string{"strategy", "finished", "errors", "err%", "wasted IOs", "p95", "p99"}}
	for i, r := range runs {
		o := outs[i]
		res.Series = append(res.Series, Series{Name: r.name, Sample: o.get})
		tb.AddRow(r.name,
			fmt.Sprint(o.finished),
			fmt.Sprint(o.errors),
			o.errPct(),
			fmt.Sprint(wasted[i]),
			stats.FormatDuration(o.get.Percentile(95)),
			stats.FormatDuration(o.get.Percentile(99)),
		)
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"table: user-visible errors and wasted IOs per strategy under the fault scenario")
	return res
}
