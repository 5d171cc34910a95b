package main

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/kv"
	"mittos/internal/noise"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/ssd"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// node-ssd: one storage node composed layer by layer by the benchmark —
// ssd → MittSSD → page cache (a quarter of the working set) → MittCache →
// kv store — driven directly by closed-loop virtual callers, with one SSD
// write-burst neighbour entering through MittSSD. No cluster, network, IO
// scheduler, or disk runs (only cluster's one-call TargetDevice adapter),
// so this is the bypass workload for every fleet optimisation, and the
// only one that runs the SSD, page cache, MittSSD, and MittCache.

// node-ssd's shape: a 200k-key zipfian working set with a page cache a
// quarter its size, and deadlines picked so EBUSY stays a minority.
const (
	nodeKeys        = 200000
	nodeCachePages  = nodeKeys / 4
	nodeCallers     = 32
	nodeReadFrac    = 0.9
	nodeThink       = time.Millisecond
	nodeNoiseGap    = time.Second // the neighbour's mean gap between write bursts
	nodeGetDeadline = 400 * time.Microsecond
	nodePutDeadline = time.Millisecond
	nodeLegs        = 6
	nodeLegLen      = 10 * time.Second
	nodeDrain       = time.Second
)

// nodeSSDLegs lists legs of the given virtual length (before the drain).
func nodeSSDLegs(seed int64, legs int, legLen time.Duration) []leg {
	var ls []leg
	for i := 0; i < legs; i++ {
		salt := fmt.Sprintf("ns-%d", i)
		ls = append(ls, leg{name: salt, setup: true, build: func(t *tracer) legRunner {
			return buildNodeLeg(seed, salt, legLen, t)
		}})
	}
	return ls
}

type nodeLeg struct {
	legLen    time.Duration
	t         *tracer
	eng       *sim.Engine
	dev       *ssd.SSD
	mssd      *core.MittSSD
	cache     *oscache.Cache
	mc        *core.MittCache
	store     *kv.Store
	noise     *noise.Bursty
	noiseShim *devShim // nil when untraced

	stopped  bool
	lat      *stats.Sample
	issued   int
	finished int
	busy     int // EBUSY verdicts: a served outcome, not a failure
	errors   int
}

// caller is one closed-loop virtual caller: it issues its next operation a
// think time after the previous one's verdict.
type caller struct {
	n      *nodeLeg
	wl     *ycsb.Workload
	req    *blockio.Request // the in-flight get's request, released at its verdict
	start  sim.Time
	doneFn func(error) // pre-bound c.done
	nextFn func()      // pre-bound c.issue
}

func buildNodeLeg(seed int64, salt string, legLen time.Duration, t *tracer) *nodeLeg {
	n := &nodeLeg{legLen: legLen, t: t, eng: sim.NewEngine(), lat: stats.NewSample(1 << 16)}
	scfg := ssd.DefaultConfig()
	t.beginDetail(spanSetup, "ssd.New", 0)
	n.dev = ssd.New(n.eng, scfg)
	t.end()
	t.beginDetail(spanSetup, "NewMittSSD", 0)
	n.mssd = core.NewMittSSD(n.eng, n.dev, core.DefaultOptions())
	t.end()

	t.beginDetail(spanSetup, "oscache.New", 0)
	ccfg := oscache.DefaultConfig()
	ccfg.CapacityPages = nodeCachePages
	n.cache = oscache.New(n.eng, ccfg, mittDevice(n.mssd, t, spanBlockSubmit))
	t.end()
	t.beginDetail(spanSetup, "NewMittCache", 0)
	n.mc = core.NewMittCache(n.eng, n.cache, n.mssd, scfg.ChipReadTime+scfg.ChannelXferTime, core.DefaultOptions())
	t.end()

	var target core.Target = n.mc
	if t != nil {
		target = &targetShim{inner: n.mc, t: t}
	}
	t.beginDetail(spanSetup, "kv.New", 0)
	kcfg := kv.DefaultConfig(0, scfg.LogicalBytes()*9/10)
	n.store = kv.New(n.eng, kcfg, target, &blockio.IDGen{})
	t.end()
	t.beginDetail(spanSetup, "Preload", 0)
	n.store.Preload(nodeKeys)
	t.end()

	t.beginDetail(spanSetup, "NewBursty", 0)
	sink := mittDevice(n.mssd, t, spanNoiseSubmit)
	n.noiseShim, _ = sink.(*devShim)
	ncfg := noise.DefaultSSDBursty(scfg.LogicalBytes()/2, 900)
	ncfg.MeanInterarrival = nodeNoiseGap
	n.noise = noise.NewBursty(n.eng, ncfg, sink,
		sim.NewRNG(seed, salt+"-noise"))
	n.noise.Start()
	t.end()

	wcfg := ycsb.DefaultConfig(nodeKeys)
	wcfg.ReadFraction, wcfg.InsertFraction, wcfg.Dist = nodeReadFrac, 0, ycsb.Zipfian
	for i := 0; i < nodeCallers; i++ {
		t.beginDetail(spanSetup, "ycsb.New", 0)
		c := &caller{n: n, wl: ycsb.New(wcfg, sim.NewRNG(seed, fmt.Sprintf("%s-wl-%d", salt, i)))}
		t.end()
		c.doneFn, c.nextFn = c.done, c.issue
		// Stagger the first issues so the callers do not start in lockstep.
		n.eng.After(time.Duration(i)*time.Microsecond, c.nextFn)
	}
	return n
}

// mittDevice is the plain block device that enters through MittSSD, as in a
// fleet node: the page cache's read-through path and the noise neighbour
// use it. Traced, it sits behind a span shim of the given kind.
func mittDevice(mssd *core.MittSSD, t *tracer, kind spanKind) blockio.Device {
	var d blockio.Device = &cluster.TargetDevice{T: mssd}
	if t != nil {
		d = &devShim{inner: d, t: t, kind: kind}
	}
	return d
}

func (c *caller) issue() {
	n := c.n
	if n.stopped {
		return
	}
	op := c.wl.Next()
	n.issued++
	c.start = n.eng.Now()
	if op.Kind == ycsb.OpRead {
		n.t.begin(spanKVGet, uint64(n.issued))
		c.req = n.store.Get(op.Key, nodeGetDeadline, c.doneFn)
		n.t.end()
		return
	}
	n.t.begin(spanKVPut, uint64(n.issued))
	n.store.PutDurable(op.Key, nodePutDeadline, c.doneFn)
	n.t.end()
}

func (c *caller) done(err error) {
	n := c.n
	if c.req != nil {
		c.req.Release()
		c.req = nil
	}
	n.finished++
	switch {
	case err == nil:
	case core.IsBusy(err):
		n.busy++
	default:
		n.errors++
	}
	n.lat.Add(n.eng.Now().Sub(c.start))
	n.eng.After(nodeThink, c.nextFn)
}

func (n *nodeLeg) run(t *tracer, window time.Duration) {
	runFor(n.eng, n.legLen, window, t)
	n.stopped = true
	n.noise.Stop()
	runFor(n.eng, nodeDrain, window, t)
}

func (n *nodeLeg) result() legOut {
	o := legOut{issued: n.issued, finished: n.finished, errors: n.errors}
	o.failed = n.errors + n.issued - n.finished
	es := n.eng.Stats()
	o.events = es.Fired
	o.vsec = time.Duration(n.eng.Now()).Seconds()

	c := counts{}
	gets, puts, flushes, compactions := n.store.Stats()
	c.add("kv.gets", gets)
	c.add("kv.puts", puts)
	c.add("kv.flushes", flushes)
	c.add("kv.compactions", compactions)
	c.add("kv.wal_groups", n.store.WalGroups())
	c.add("kv.put_retries", n.store.PutRetries())
	reads, writes, erases := n.dev.Stats()
	c.add("ssd.reads", reads)
	c.add("ssd.writes", writes)
	c.add("ssd.erases", erases)
	hits, misses, evictions := n.cache.Stats()
	sAcc, sRej := n.mssd.Counts()
	cAcc, cRej := n.mc.Counts()
	// MittCache sends an admitted miss straight to the layer below, past
	// the cache's own miss counter: its admitted reads that were not hits
	// are the misses.
	c.add("oscache.hits", hits)
	c.add("oscache.misses", misses+cAcc-hits)
	c.add("oscache.evictions", evictions)
	c.add("core.rejects", sRej+cRej)
	c.add("core.admits", sAcc+cAcc)
	c.add("core.busy_heard", uint64(n.busy))
	if n.noiseShim != nil {
		c.add("noise.ios", n.noiseShim.subs)
	}
	c.add("sim.events", es.Fired)
	c.add("sim.cancelled", es.Cancelled)
	c.add("sim.cascades", es.Cascades)
	c.max("sim.max_pending", float64(es.MaxPending))
	o.counts = c

	d := newDigest()
	d.add(uint64(n.issued), uint64(n.finished), uint64(n.errors), uint64(n.busy))
	d.add(uint64(n.lat.Percentile(50)), uint64(n.lat.Percentile(99)), uint64(n.lat.Max()))
	d.add(es.Fired, es.Cancelled, gets, puts, flushes, compactions, n.store.WalGroups(), n.store.PutRetries())
	d.add(reads, writes, erases, hits, misses, evictions, sAcc, sRej, cAcc, cRej)
	o.digest = d.sum()
	return o
}
