package main

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/experiments"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// fleet-get and fleet-put: a 20-node disk+CFQ fleet with 3-way replication
// and per-node EC2 bursty disk noise, driven by open-loop Poisson clients
// at two frozen offered rates, once per client strategy. The fleet is
// composed the way the experiments compose theirs (fresh engine, shared
// disk profile, node RNG stream from the seed alone), but from public
// constructors only.

// fleetStrategies are the four compared client strategies, in leg order.
var fleetStrategies = []string{"Base", "AppTO", "Hedged", "MittOS"}

// The fleet's shape beside its frozen size and leg length.
const (
	fleetReplication = 3
	fleetKeys        = 100000 // per node
	fleetClients     = 20
	fleetDrain       = 10 * time.Second // bound on the drain after the clients stop
)

// rateMults are the offered loads, as multiples of saturation; the frozen
// rates are saturation times each.
var rateMults = []float64{0.8, 1.2}

// fleetLegs lists one leg per (rate, strategy).
func fleetLegs(p fleetParams, seed int64, put bool) []leg {
	rates := p.GetRates
	if put {
		rates = p.PutRates
	}
	var ls []leg
	for ri, rate := range rates {
		for _, strat := range fleetStrategies {
			ri, rate, strat := ri, rate, strat
			name := fmt.Sprintf("%s@%.1fx", strat, rateMults[ri])
			ls = append(ls, leg{name: name, setup: true, build: func(t *tracer) legRunner {
				return buildFleetLeg(p, seed, put, ri, rate, strat, t)
			}})
		}
	}
	return ls
}

// fleetLeg is one built leg: the fleet, its clients, and the strategies
// (kept by concrete type so their counters can be read after the run).
type fleetLeg struct {
	legMs   int64
	eng     *sim.Engine
	net     *netsim.Network
	c       *cluster.Cluster
	noise   []*noise.Bursty
	shims   []*devShim
	clients []*cluster.Client
	get     cluster.Strategy
	put     cluster.PutStrategy
}

// newFleet builds the fleet and starts its noise. Every strategy at one
// rate sees the same noise and network streams: they derive from the seed
// and the salt alone.
func newFleet(p fleetParams, seed int64, salt string, mitt bool, t *tracer) *fleetLeg {
	f := &fleetLeg{eng: sim.NewEngine()}

	t.beginDetail(spanSetup, "NewNetwork", 0)
	f.net = netsim.New(f.eng, netsim.DefaultConfig(), sim.NewRNG(seed, "fleet-"+salt).Fork("net"))
	t.end()

	tmpl := cluster.NodeConfig{
		Device:      cluster.DeviceDisk,
		DiskConfig:  disk.DefaultConfig(),
		UseCFQ:      true,
		Mitt:        mitt,
		MittOptions: core.DefaultOptions(),
		Keys:        fleetKeys,
		DiskProfile: experiments.DiskProfile(),
	}
	t.beginDetail(spanSetup, "NewCluster", 0)
	f.c = cluster.NewCluster(f.eng, f.net, p.Nodes, fleetReplication, tmpl, sim.NewRNG(seed, "nodes"))
	t.end()

	for i, n := range f.c.Nodes {
		var sink blockio.Device = n.NoiseSink()
		if t != nil {
			sh := &devShim{inner: sink, t: t, kind: spanNoiseSubmit}
			f.shims = append(f.shims, sh)
			sink = sh
		}
		t.beginDetail(spanSetup, "NewBursty", 0)
		b := noise.NewBursty(f.eng, noise.DefaultDiskBursty(500<<30, 900+i), sink,
			sim.NewRNG(seed, fmt.Sprintf("noise-%d", i)))
		b.Start()
		t.end()
		f.noise = append(f.noise, b)
	}
	return f
}

// startClients starts n clients of the given shape on the leg's strategies
// (read-only when the put strategy is nil), behind shims when traced.
func (f *fleetLeg) startClients(n int, ccfg cluster.ClientConfig, wcfg ycsb.Config, seed int64, salt string, t *tracer) {
	var get cluster.Strategy = f.get
	var put cluster.PutStrategy = f.put
	if t != nil {
		get = newGetShim(f.get, t)
		if put != nil {
			put = newPutShim(f.put, t)
		}
	}
	for i := 0; i < n; i++ {
		t.beginDetail(spanSetup, "ycsb.New", 0)
		wl := ycsb.New(wcfg, sim.NewRNG(seed, fmt.Sprintf("%s-wl-%d", salt, i)))
		t.end()
		t.beginDetail(spanSetup, "NewClient", 0)
		cl := cluster.NewClient(f.eng, ccfg, get, wl, sim.NewRNG(seed, fmt.Sprintf("%s-cl-%d", salt, i)))
		if put != nil {
			cl.SetPutStrategy(put, false)
		}
		cl.Start()
		t.end()
		f.clients = append(f.clients, cl)
	}
}

func buildFleetLeg(p fleetParams, seed int64, put bool, ri int, rate float64, strat string, t *tracer) *fleetLeg {
	path := "get"
	if put {
		path = "put"
	}
	salt := fmt.Sprintf("%s-%d", path, ri)
	f := newFleet(p, seed, salt, strat == "MittOS", t)
	f.legMs = p.GetLegMs
	if put {
		f.legMs = p.PutLegMs
	}

	getP95, putP95 := time.Duration(p.GetP95Ns), time.Duration(p.PutP95Ns)
	switch strat {
	case "Base":
		f.get = &cluster.BaseStrategy{C: f.c}
		f.put = &cluster.BasePut{C: f.c}
	case "AppTO":
		f.get = &cluster.TimeoutStrategy{C: f.c, TO: getP95}
		f.put = &cluster.TimeoutPut{C: f.c, TO: putP95}
	case "Hedged":
		f.get = &cluster.HedgedStrategy{C: f.c, HedgeAfter: getP95}
		f.put = &cluster.HedgedPut{C: f.c, HedgeAfter: putP95}
	case "MittOS":
		f.get = &cluster.MittOSStrategy{C: f.c, Deadline: getP95, UseWaitHint: true}
		f.put = &cluster.MittOSPut{C: f.c, Deadline: putP95, UseWaitHint: true}
	}
	wcfg := ycsb.DefaultConfig(fleetKeys)
	if put {
		wcfg = updateOnly()
	} else {
		f.put = nil
	}
	// The aggregate rate is split evenly over the clients; superposed
	// Poisson arrivals are again Poisson at the aggregate rate.
	iv := time.Duration(float64(fleetClients) / rate * float64(time.Second))
	f.startClients(fleetClients, cluster.ClientConfig{
		Interval:    iv,
		Arrival:     cluster.ArrivalPoisson,
		ScaleFactor: 1,
		ExpectedOps: int(ms(f.legMs)/iv) + 1,
	}, wcfg, seed, salt, t)
	return f
}

// updateOnly is the write-path workload: zipfian updates of existing keys,
// the YCSB update mix with no reads.
func updateOnly() ycsb.Config {
	cfg := ycsb.DefaultConfig(fleetKeys)
	cfg.ReadFraction, cfg.InsertFraction, cfg.Dist = 0, 0, ycsb.Zipfian
	return cfg
}

func (f *fleetLeg) run(t *tracer, window time.Duration) {
	runFor(f.eng, ms(f.legMs), window, t)
	for _, cl := range f.clients {
		cl.Stop()
	}
	for _, b := range f.noise {
		b.Stop()
	}
	runFor(f.eng, fleetDrain, window, t)
}

func (f *fleetLeg) result() legOut {
	var o legOut
	n := 0
	for _, cl := range f.clients {
		n += cl.UserLatencies.N()
	}
	lat := stats.NewSample(n)
	for _, cl := range f.clients {
		o.issued += cl.Issued()
		o.finished += cl.Finished()
		o.errors += cl.Errors()
		lat.Merge(cl.UserLatencies)
	}
	// Strategies never surface EBUSY to users, so every user error is a
	// failure, as is every request the bounded drain left unfinished.
	o.failed = o.errors + o.issued - o.finished

	es := f.eng.Stats()
	o.events = es.Fired
	o.vsec = time.Duration(f.eng.Now()).Seconds()

	c := counts{}
	var served, rejected uint64
	for _, n := range f.c.Nodes {
		gets, puts, flushes, compactions := n.Store.Stats()
		c.add("kv.gets", gets)
		c.add("kv.puts", puts)
		c.add("kv.flushes", flushes)
		c.add("kv.compactions", compactions)
		c.add("kv.wal_groups", n.Store.WalGroups())
		c.add("kv.put_retries", n.Store.PutRetries())
		c.add("disk.ops", n.Disk.Served())
		served += n.Served()
		rejected += n.Rejected()
	}
	c.add("core.rejects", rejected)
	c.add("core.admits", served-rejected)
	c.add("cluster.finished", uint64(o.finished))
	c.add("netsim.msgs", f.net.Sent())
	wasted, busy, copies := strategyCounters(f.get, f.put, uint64(o.issued))
	c.add("cluster.wasted", wasted)
	c.add("cluster.busy_heard", busy)
	c.add("cluster.copies", copies)
	c.add("sim.events", es.Fired)
	c.add("sim.cancelled", es.Cancelled)
	c.add("sim.cascades", es.Cascades)
	c.max("sim.max_pending", float64(es.MaxPending))
	for _, sh := range f.shims {
		c.add("noise.ios", sh.subs)
	}
	o.counts = c

	d := newDigest()
	d.add(uint64(o.issued), uint64(o.finished), uint64(o.errors))
	d.add(uint64(lat.Percentile(50)), uint64(lat.Percentile(99)), uint64(lat.Max()))
	d.add(es.Fired, es.Cancelled, served, rejected, f.net.Sent(), wasted, busy, copies)
	for _, k := range []string{"kv.gets", "kv.puts", "kv.flushes", "kv.compactions", "kv.wal_groups", "kv.put_retries", "disk.ops"} {
		d.add(uint64(c[k]))
	}
	o.digest = d.sum()
	return o
}

// strategyCounters reads the wasted-work, EBUSY-heard, and replica-copy
// counts off the leg's strategies. A read-only leg issues one get per user
// request, so its copies are the gets plus every extra attempt.
func strategyCounters(get cluster.Strategy, put cluster.PutStrategy, requests uint64) (wasted, busy, copies uint64) {
	if put != nil {
		var pc *cluster.PutCounters
		switch s := put.(type) {
		case *cluster.BasePut:
			pc = &s.PutCounters
		case *cluster.TimeoutPut:
			pc = &s.PutCounters
		case *cluster.HedgedPut:
			pc = &s.PutCounters
		case *cluster.MittOSPut:
			pc = &s.PutCounters
		}
		return pc.WastedWrites, pc.Busy, pc.CopiesSent
	}
	copies = requests
	switch s := get.(type) {
	case *cluster.TimeoutStrategy:
		wasted, copies = s.WastedIOs, copies+s.Retries
	case *cluster.HedgedStrategy:
		wasted, copies = s.WastedIOs, copies+s.Hedges
	case *cluster.MittOSStrategy:
		// No crashes in these legs: every failover is a heard EBUSY.
		busy, copies = s.Failovers, copies+s.Failovers
	}
	return wasted, busy, copies
}

// runFor advances the engine by d, in virtual windows of the given length
// when window > 0 (each one a span, and a sample of host time per window).
func runFor(eng *sim.Engine, d, window time.Duration, t *tracer) {
	if window <= 0 {
		eng.RunFor(d)
		return
	}
	end := eng.Now().Add(d)
	for eng.Now() < end {
		step := window
		if rem := end.Sub(eng.Now()); rem < step {
			step = rem
		}
		t.begin(spanWindow, 0)
		eng.RunFor(step)
		t.end()
	}
}
