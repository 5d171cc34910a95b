package experiments

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/noise"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// Fig12 reproduces Figure 12: adaptive replica selection (C3) cannot react
// to sub-second burstiness (§7.8.3). C3 runs under four noise regimes —
// none, EC2-bursty, one-busy-two-free rotating every second, and rotating
// every five seconds — and only the slow rotation lets its latency feedback
// catch up. A MittOS run under the harshest regime is included for
// contrast.
func Fig12(opt Options) *Result {
	res := &Result{ID: "fig12", Title: "C3/snitching vs sub-second burstiness (§7.8.3)"}
	// The paper's scenario is literal: THREE replicas, one busy and two
	// free in a rotating manner (§7.8.3). A bigger fleet dilutes it.
	opt.Nodes = 3
	if opt.Clients > 3 {
		opt.Clients = 3
	}
	regimes := []struct {
		name  string
		noise func(f *fleet)
	}{
		{"NoBusy", func(f *fleet) {}},
		{"Bursty", func(f *fleet) { f.addEC2DiskNoise(opt) }},
		{"1B2F-1sec", func(f *fleet) { addRotating(f, opt, time.Second) }},
		{"1B2F-5sec", func(f *fleet) { addRotating(f, opt, 5*time.Second) }},
	}
	// Stage 1: the four C3 regimes are independent legs.
	outs := make([]*stats.Sample, len(regimes))
	var ls legs
	for i, reg := range regimes {
		i, reg := i, reg
		ls.add(func(a *legArena) {
			f := a.newFleet(opt, fleetDisk, false, "fig12-"+reg.name)
			reg.noise(f)
			outs[i] = f.runClients(opt, &cluster.C3Strategy{C: f.c}, 1, getLat).get
		})
	}
	runLegs(opt.Workers, ls)
	for i, reg := range regimes {
		res.Series = append(res.Series, Series{Name: "C3/" + reg.name, Sample: outs[i]})
	}
	// Stage 2: the MittOS contrast run needs the NoBusy p95 from stage 1.
	p95 := time.Duration(0)
	if s := res.FindSeries("C3/NoBusy"); s != nil {
		p95 = s.Sample.Percentile(95)
	}
	if p95 <= 0 {
		p95 = 15 * time.Millisecond
	}
	var mitt *stats.Sample
	runLegs(opt.Workers, legs{func(a *legArena) {
		fm := a.newFleet(opt, fleetDisk, true, "fig12-mitt")
		addRotating(fm, opt, time.Second)
		mitt = fm.runClients(opt, &cluster.MittOSStrategy{C: fm.c, Deadline: p95}, 1, getLat).get
	}})
	res.Series = append(res.Series, Series{Name: "MittOS/1B2F-1sec", Sample: mitt})
	res.Notes = append(res.Notes, fmt.Sprintf("MittOS deadline = NoBusy p95 = %v", p95))
	return res
}

// addRotating attaches the 1-busy/(N−1)-free rotating severe contention,
// which runs on through the leg's drain.
func addRotating(f *fleet, opt Options, period time.Duration) {
	sinks := make([]blockio.Device, len(f.c.Nodes))
	for i, n := range f.c.Nodes {
		sinks[i] = n.NoiseSink()
	}
	rot := noise.NewRotating(f.eng, sinks, period, 6, 1<<20, 500<<30,
		sim.NewRNG(opt.Seed, "fig12-rot"))
	rot.Start()
}
