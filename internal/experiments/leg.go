package experiments

import (
	"fmt"
	"strconv"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/metrics"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
	"mittos/internal/ssd"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// Every fleet experiment of §7 runs its legs through one recipe: build a
// fleet per strategy under the same noise timeline (newFleet), launch
// clients on it (startClients), run for the measured window and drain
// (legArena.run), and merge what the clients recorded (harvest). A Base
// leg's p95 sets the deadline, timeout and hedge knobs (baselineP95,
// rwKnobs) of the strategy legs that follow. Three fleet experiments keep
// loops of their own: fig8, whose noise runs on through its drain, and
// fig13 and writes, whose clients are ticker-driven. fig3, fig9 and table1
// build no fleet.

// fleet bundles one engine + cluster + noise for a strategy run.
type fleet struct {
	eng     *sim.Engine
	c       *cluster.Cluster
	noise   []*noise.Bursty
	metrics *metrics.Set // non-nil only when Options.Metrics is set
	arena   *legArena
}

// snapshot captures the fleet's metrics under the leg label, or nil when
// metrics are off.
func (f *fleet) snapshot(leg string) *metrics.Snapshot {
	if f.metrics == nil {
		return nil
	}
	return f.metrics.Snapshot(leg)
}

// fleetKind selects the storage flavour of a fleet.
type fleetKind int

const (
	fleetDisk fleetKind = iota
	fleetDiskCache
	fleetSSD
)

// newFleet builds a fleet on the arena's engine, drawing the serve-context
// and request pools, SSD devices and sample buffers from the arena and
// registering the fleet for teardown at reset. Each strategy leg gets its
// own fleet with the same seed, so strategies face identical noise
// timelines — the paper's "apply EC2 noise distributions to our testbed"
// methodology (§7.2). Fleets built in one leg share its engine, which is how
// several tiers co-exist in one deployment (§7.8.5).
func (a *legArena) newFleet(opt Options, kind fleetKind, mitt bool, seedSalt string) *fleet {
	root := sim.NewRNG(opt.Seed, "fleet-"+seedSalt)
	net := netsim.New(a.eng, netsim.DefaultConfig(), root.Fork("net"))
	var ms *metrics.Set
	if opt.Metrics {
		ms = metrics.New(a.eng, opt.Nodes, opt.TraceIOs)
	}
	tmpl := cluster.NodeConfig{
		MittOptions: core.DefaultOptions(),
		Mitt:        mitt,
		Keys:        opt.Keys,
		DiskProfile: sharedDiskProfile,
		Metrics:     ms,
		Pools:       a.pools,
		SSDPool:     a.ssds,
	}
	switch kind {
	case fleetDisk:
		tmpl.Device = cluster.DeviceDisk
		tmpl.DiskConfig = disk.DefaultConfig()
		tmpl.UseCFQ = true
	case fleetDiskCache:
		tmpl.Device = cluster.DeviceDisk
		tmpl.DiskConfig = disk.DefaultConfig()
		tmpl.UseCFQ = true
		// Cache sized to hold the working set (the paper's 3.5GB-in-4GB
		// setup): keys × 4KB blocks, plus headroom.
		tmpl.CachePages = int(opt.Keys + opt.Keys/4)
		// The §5 MongoDB read path: addrcheck() + page faults (applies
		// when the Mitt layer is present).
		tmpl.Mmap = true
	case fleetSSD:
		tmpl.Device = cluster.DeviceSSD
		cfg := ssd.DefaultConfig()
		tmpl.SSDConfig = cfg
		if opt.Keys*4096 > cfg.LogicalBytes() {
			panic("experiments: keyspace exceeds SSD capacity")
		}
	}
	// NOTE: the node RNG stream is derived from opt.Seed only (not the
	// salt) so Mitt and non-Mitt fleets share device randomness.
	c := cluster.NewCluster(a.eng, net, opt.Nodes, 3, tmpl, sim.NewRNG(opt.Seed, "nodes"))
	f := &fleet{eng: a.eng, c: c, metrics: ms, arena: a}
	a.fleets = append(a.fleets, f)
	return f
}

// addEC2DiskNoise attaches a per-node bursty neighbor calibrated per §6.
func (f *fleet) addEC2DiskNoise(opt Options) {
	for i, n := range f.c.Nodes {
		cfg := noise.DefaultDiskBursty(500<<30, 900+i)
		b := noise.NewBursty(f.eng, cfg, n.NoiseSink(), sim.NewRNG(opt.Seed, fmt.Sprintf("noise-%d", i)))
		b.Start()
		f.noise = append(f.noise, b)
	}
}

func (f *fleet) stopNoise() {
	for _, b := range f.noise {
		b.Stop()
	}
}

// clientConfig is the §7.2 open-loop client at the options' interval, with
// scaleFactor gets per user request. Its samples are pre-sized to the leg's
// expected op count so steady-state recording never grows a slice.
func (o Options) clientConfig(scaleFactor int) cluster.ClientConfig {
	ccfg := cluster.DefaultClientConfig()
	ccfg.Interval = o.Interval
	ccfg.ScaleFactor = scaleFactor
	if o.Interval > 0 {
		ccfg.ExpectedOps = int(o.Duration/o.Interval) + 1
	}
	return ccfg
}

// startClients launches opt.Clients clients on the fleet. Each draws its
// ops from a wcfg workload and sends gets through strat; a non-nil ps makes
// the clients write too, through ps, and rmw makes each write a
// read-modify-write (YCSB F). Client i's workload and timing streams are
// salt+"wl-i" and salt+"cl-i", so every leg that shares a salt faces an
// identical workload. The clients' sample buffers come from the arena and
// return to it at reset.
func (f *fleet) startClients(opt Options, ccfg cluster.ClientConfig, wcfg ycsb.Config,
	strat cluster.Strategy, ps cluster.PutStrategy, rmw bool, salt string) []*cluster.Client {
	ccfg.Bufs = f.arena.bufs
	clients := make([]*cluster.Client, 0, opt.Clients)
	for i := 0; i < opt.Clients; i++ {
		// Client-side SLO verdicts have no home node; spread them round-
		// robin so fleet totals are right and no counter hot-spots.
		ccfg.Rec = f.metrics.Node(i % opt.Nodes)
		n := strconv.Itoa(i)
		wl := ycsb.New(wcfg, sim.NewRNG(opt.Seed, salt+"wl-"+n))
		cl := cluster.NewClient(f.eng, ccfg, strat, wl, sim.NewRNG(opt.Seed, salt+"cl-"+n))
		if ps != nil {
			cl.SetPutStrategy(ps, rmw)
		}
		cl.Start()
		clients = append(clients, cl)
	}
	f.arena.clients = append(f.arena.clients, clients...)
	return clients
}

// legDrain is how long a leg keeps its engine running after the clients
// stop, so in-flight requests and quorums finish.
const legDrain = 5 * time.Second

// run drives the leg for d, stops every client and EC2 noise neighbor the
// leg started, then runs drain more so in-flight requests finish. Noise a
// leg attached by other means (tickers, trace replayers, rotating
// contention) runs on through the drain.
func (a *legArena) run(d, drain time.Duration) {
	a.eng.RunFor(d)
	for _, cl := range a.clients {
		cl.Stop()
	}
	for _, f := range a.fleets {
		f.stopNoise()
	}
	a.eng.RunFor(drain)
}

// latKinds selects the client latency samples a harvest merges.
type latKinds uint8

const (
	getLat  latKinds = 1 << iota // per get (Client.IOLatencies)
	userLat                      // per user request, the max over its fan-out
	putLat                       // per put quorum
)

// legOut is what a leg's clients leave behind: the latency samples the
// harvest merged (nil otherwise) and their request tallies.
type legOut struct {
	get, user, put   *stats.Sample
	finished, errors int
	met, missed      int // user requests at or under / over the client SLO
}

// harvest sums the clients' tallies and merges the latency samples lats
// names, each pre-sized to the exact total. It must run inside the leg:
// the clients' buffers return to the arena at reset.
func harvest(clients []*cluster.Client, lats latKinds) legOut {
	var o legOut
	for _, cl := range clients {
		o.finished += cl.Finished()
		o.errors += cl.Errors()
		o.met += cl.SLOMet()
		o.missed += cl.SLOMissed()
	}
	if lats&getLat != 0 {
		o.get = merge(clients, func(cl *cluster.Client) *stats.Sample { return cl.IOLatencies })
	}
	if lats&userLat != 0 {
		o.user = merge(clients, func(cl *cluster.Client) *stats.Sample { return cl.UserLatencies })
	}
	if lats&putLat != 0 {
		o.put = merge(clients, func(cl *cluster.Client) *stats.Sample { return cl.PutLatencies })
	}
	return o
}

func merge(clients []*cluster.Client, of func(*cluster.Client) *stats.Sample) *stats.Sample {
	n := 0
	for _, cl := range clients {
		n += of(cl).N()
	}
	out := stats.NewSample(n)
	for _, cl := range clients {
		out.Merge(of(cl))
	}
	return out
}

// errPct renders the share of finished user requests that failed.
func (o legOut) errPct() string {
	pct := 0.0
	if o.finished > 0 {
		pct = 100 * float64(o.errors) / float64(o.finished)
	}
	return fmt.Sprintf("%.2f%%", pct)
}

// runClients drives the fleet with opt.Clients read-only §7.2 clients
// issuing scaleFactor gets per user request, runs the leg with the
// standard drain, and harvests the latencies lats names.
func (f *fleet) runClients(opt Options, strat cluster.Strategy, scaleFactor int, lats latKinds) legOut {
	clients := f.startClients(opt, opt.clientConfig(scaleFactor), ycsb.DefaultConfig(opt.Keys),
		strat, nil, false, "")
	f.arena.run(opt.Duration, legDrain)
	return harvest(clients, lats)
}

// baselineP95 measures the Base strategy's per-get p95 on a disk fleet
// salted salt, under noise when it is non-nil — the value the paper uses
// for deadlines, hedge triggers, and timeouts ("we will use 13ms, the p95
// latency, for deadline and timeout values", §7.2). It is the first stage
// of every experiment that needs the knob: a single runLegs stage, so the
// dependency on it is an explicit barrier.
func baselineP95(opt Options, noise func(*fleet, Options), salt string) (time.Duration, *stats.Sample) {
	var io *stats.Sample
	runLegs(opt.Workers, legs{func(a *legArena) {
		f := a.newFleet(opt, fleetDisk, false, salt)
		if noise != nil {
			noise(f, opt)
		}
		io = f.runClients(opt, &cluster.BaseStrategy{C: f.c}, 1, getLat).get
	}})
	return io.Percentile(95), io
}

// reductionTable starts a table of the paper's %-latency-reduction bars,
// first naming what each row compares: columns Avg/p75/p90/p95/p99
// (footnote 2 of §7.2).
func reductionTable(first string) *stats.Table {
	return &stats.Table{Header: []string{first, "Avg", "p75", "p90", "p95", "p99"}}
}

// addReductionRow appends mitt's reduction against other, labelled name.
func addReductionRow(tb *stats.Table, name string, mitt, other *stats.Sample) {
	cells := []string{name}
	for _, v := range stats.ReductionRow(mitt, other) {
		cells = append(cells, stats.FormatPct(v))
	}
	tb.AddRow(cells...)
}

// sfSweep is the scale-factor sweep of Figures 6 and 7 (§7.3): Hedged
// against a Mitt strategy, named mitt, at SF ∈ {1, 2, 5, 10}. Each
// (factor, strategy) pair is one leg on a kind fleet under noise, salted
// salt+"hedged-sfN" or salt+"mitt-sfN". It appends both user-latency
// series per factor to res, then the table of mitt's reduction vs Hedged,
// and returns the legs' metrics snapshots in series order (none when
// metrics are off).
func sfSweep(res *Result, opt Options, kind fleetKind, noise func(*fleet, Options),
	salt, mitt string, hedgeAfter, deadline time.Duration) []*metrics.Snapshot {
	sfs := []int{1, 2, 5, 10}
	outs := make([]*stats.Sample, 2*len(sfs))
	snaps := make([]*metrics.Snapshot, 2*len(sfs))
	names := make([]string, 2*len(sfs))
	var ls legs
	for i, sf := range sfs {
		// A user request fans out to SF gets; spacing user requests SF×
		// apart keeps the per-node IO load constant across panels (the
		// paper's closed-loop YCSB clients self-limit the same way).
		sopt := opt
		sopt.Interval = opt.Interval * time.Duration(sf)
		names[2*i] = fmt.Sprintf("Hedged-SF%d", sf)
		names[2*i+1] = fmt.Sprintf("%s-SF%d", mitt, sf)
		for j, leg := range []string{"hedged", "mitt"} {
			k, sf, leg := 2*i+j, sf, leg
			ls.add(func(a *legArena) {
				f := a.newFleet(sopt, kind, leg == "mitt", fmt.Sprintf("%s%s-sf%d", salt, leg, sf))
				noise(f, sopt)
				var strat cluster.Strategy = &cluster.HedgedStrategy{C: f.c, HedgeAfter: hedgeAfter}
				if leg == "mitt" {
					strat = &cluster.MittOSStrategy{C: f.c, Deadline: deadline}
				}
				outs[k] = f.runClients(sopt, strat, sf, userLat).user
				snaps[k] = f.snapshot(res.ID + "/" + names[k])
			})
		}
	}
	runLegs(opt.Workers, ls)
	tb := reductionTable("SF")
	for i, sf := range sfs {
		hedged, m := outs[2*i], outs[2*i+1]
		res.Series = append(res.Series,
			Series{Name: names[2*i], Sample: hedged},
			Series{Name: names[2*i+1], Sample: m})
		addReductionRow(tb, strconv.Itoa(sf), m, hedged)
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes, "table: % latency reduction of "+mitt+" vs Hedged per scale factor")
	if snaps[0] == nil {
		return nil
	}
	return snaps
}
