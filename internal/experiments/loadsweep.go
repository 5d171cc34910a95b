package experiments

import (
	"fmt"
	"math"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/metrics"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// defaultSweepRates are the offered-load multipliers (× measured saturation)
// the sweep visits when Options.Rates is empty: well under the knee, at the
// knee, and past it, so the tables show the whole hockey stick.
var defaultSweepRates = []float64{0.2, 0.5, 0.8, 0.95, 1.2, 1.5}

// MinSweepRate and MaxSweepRate bound the offered-load multipliers a caller
// may pass in Options.Rates (RunConfig.Rates, mittbench -rates). Near zero
// a client's arrival interval overflows (1e-300 wraps it negative, and the
// leg then issues every nanosecond). Past saturation the
// arrivals pile up unserved and done/s has long plateaued: at quick scale a
// 3× sweep peaks at 1.4 GiB resident, a 10× sweep at 7 GiB.
const (
	MinSweepRate = 0.01
	MaxSweepRate = 3
)

// CheckSweepRate reports whether m is a usable offered-load multiplier: a
// finite value in [MinSweepRate, MaxSweepRate].
func CheckSweepRate(m float64) error {
	if math.IsNaN(m) || m < MinSweepRate || m > MaxSweepRate {
		return fmt.Errorf("offered-load multiplier %v outside [%v, %v]", m, MinSweepRate, MaxSweepRate)
	}
	return nil
}

// sweepMaxPresize caps a sweep client's latency-sample pre-sizing. It is
// above every cell of the built-in sweep at full scale; a larger leg's
// samples grow as they fill instead of reserving the whole leg up front.
const sweepMaxPresize = 1 << 18

// sweepPresize is the sample pre-sizing for a client issuing every iv over
// d: the expected op count, capped at sweepMaxPresize.
func sweepPresize(d, iv time.Duration) int {
	if n := d / iv; n < sweepMaxPresize {
		return int(n) + 1
	}
	return sweepMaxPresize
}

// SweepPoint is one (path, strategy, offered-rate) cell of the loadsweep
// matrix — the machine-readable twin of the rendered tables, dumped by
// mittbench -sweep-json.
type SweepPoint struct {
	// Path is "get" or "put".
	Path string `json:"path"`
	// Strategy is Base, AppTO, Hedged, or MittOS.
	Strategy string `json:"strategy"`
	// RateMult is the offered-load multiplier (× measured saturation).
	RateMult float64 `json:"rate_mult"`
	// OfferedPerSec is the aggregate target arrival rate.
	OfferedPerSec float64 `json:"offered_per_sec"`
	// DonePerSec is completed user requests over the measured window.
	DonePerSec float64 `json:"done_per_sec"`
	// GoodputPerSec counts only completions at or under the deadline.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// AttainPct is the fraction of finished requests meeting the SLO.
	AttainPct float64 `json:"attain_pct"`
	// P50Ns/P95Ns/P99Ns are user-latency percentiles in nanoseconds.
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	// InflightHWM is the high-water mark of concurrently outstanding user
	// requests across the leg's client fleet.
	InflightHWM int `json:"inflight_hwm"`
	// Busy counts fast EBUSY refusals the strategy heard (MittOS failovers
	// on the read path, rejected put copies on the write path).
	Busy uint64 `json:"busy"`
	// Wasted counts IOs/durable writes executed past their usefulness
	// (abandoned timeout attempts, losing hedges, post-verdict put copies).
	Wasted uint64 `json:"wasted"`
	// Errors counts failed user requests; Finished counts completed ones.
	Errors   int `json:"errors"`
	Finished int `json:"finished"`
}

// sweepOut is one sweep leg's harvest.
type sweepOut struct {
	legOut
	inflightHWM int
	busy        uint64
	wasted      uint64
	snap        *metrics.Snapshot
}

// putOnlyConfig is the write-path sweep workload: every op is an update of
// an existing key, zipfian like the YCSB mixes.
func putOnlyConfig(keys int64) ycsb.Config {
	cfg := ycsb.DefaultConfig(keys)
	cfg.ReadFraction = 0
	cfg.InsertFraction = 0
	cfg.Dist = ycsb.Zipfian
	return cfg
}

// sweepDrain is how long a sweep leg keeps the engine running after the
// clients stop. It is deliberately bounded: requests still queued when it
// expires never finish, so past saturation done/s plateaus at capacity
// instead of crediting an arbitrarily long tail.
const sweepDrain = 10 * time.Second

// LoadSweep sweeps offered load from well under to past measured saturation
// across the full read and write strategy matrices — the hockey-stick view
// of the paper's claim that fast rejection keeps tails bounded as load
// approaches saturation. Calibration first measures the per-path p95 knobs
// (deadline/timeout/hedge trigger, §7.2) and the fleet's saturation
// throughput (closed-loop Base clients with near-zero think time); the
// sweep then offers each rate multiple through open-loop Poisson clients
// and reports throughput, tail latencies, SLO attainment, goodput, and
// overload diagnostics per (strategy, rate) cell.
func LoadSweep(opt Options) *Result {
	res := &Result{ID: "loadsweep", Title: "offered-load sweep: SLO attainment and goodput vs saturation (§7.2, §7.8.6)"}

	rates := opt.Rates
	if len(rates) == 0 {
		rates = defaultSweepRates
	}

	// Stage 1: calibration. Three independent legs — the p95 knob run (the
	// noisy Base baseline every strategy's deadline/timeout/hedge comes
	// from) and one closed-loop saturation probe per path. The saturation
	// probes drive ~3 outstanding requests per node with near-zero think
	// time: the sustained completion rate is the knee the sweep's rate
	// multipliers are anchored to.
	var getP95, putP95 time.Duration
	var satGet, satPut float64
	satOpt := opt
	satOpt.Clients = 3 * opt.Nodes
	satCfg := cluster.ClientConfig{
		Interval:    time.Microsecond,
		ScaleFactor: 1,
		Closed:      true,
		ExpectedOps: int(opt.Duration / (2 * time.Millisecond)),
	}
	// satRate runs one saturation probe, writing through BasePut when put
	// is set, and returns its sustained completion rate.
	satRate := func(a *legArena, salt string, wcfg ycsb.Config, put bool) float64 {
		f := a.newFleet(satOpt, fleetDisk, false, salt)
		f.addEC2DiskNoise(satOpt)
		var ps cluster.PutStrategy
		if put {
			ps = &cluster.BasePut{C: f.c}
		}
		clients := f.startClients(satOpt, satCfg, wcfg, &cluster.BaseStrategy{C: f.c}, ps, false, salt+"-")
		a.run(opt.Duration, legDrain)
		return float64(harvest(clients, 0).finished) / opt.Duration.Seconds()
	}
	runLegs(opt.Workers, legs{
		func(a *legArena) { getP95, putP95 = rwKnobs(a, opt, "lsw-knobs") },
		func(a *legArena) { satGet = satRate(a, "lsw-satget", ycsb.DefaultConfig(opt.Keys), false) },
		func(a *legArena) { satPut = satRate(a, "lsw-satput", putOnlyConfig(opt.Keys), true) },
	})
	// The user-level SLO the attainment columns count against is 2× the
	// OS-level deadline: the paper's guidance (§4) is to hand the OS a
	// fraction of the end-to-end budget so a rejected request has headroom
	// for a failover round before the user notices.
	getSLO, putSLO := 2*getP95, 2*putP95
	res.Notes = append(res.Notes, fmt.Sprintf(
		"knobs from noisy Base baseline: get p95 = %v, put p95 = %v (deadline, timeout, and hedge trigger per path); "+
			"user SLO = 2× the deadline (§4: leave failover headroom inside the user budget)",
		getP95, putP95))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"measured saturation (closed loop, %d clients, ~zero think): gets %.0f ops/s, durable puts %.0f ops/s; offered load = rate × saturation over %d open-loop Poisson clients",
		satOpt.Clients, satGet, satPut, opt.Clients))

	strategies := rwStrategies(getP95, putP95)
	paths := []struct {
		name string
		sat  *float64
		slo  *time.Duration
	}{
		{"get", &satGet, &getSLO},
		{"put", &satPut, &putSLO},
	}

	// Stage 2: the sweep proper — one hermetic leg per (path, strategy,
	// rate) cell, every cell facing the identical noise timeline and
	// workload streams for its leg salt.
	nCells := len(paths) * len(strategies) * len(rates)
	outs := make([]sweepOut, nCells)
	var ls legs
	idx := 0
	for pi, path := range paths {
		for _, st := range strategies {
			for _, m := range rates {
				i, pi, path, st, m := idx, pi, path, st, m
				idx++
				ls.add(func(a *legArena) {
					sat := *path.sat
					if sat <= 0 {
						return
					}
					salt := fmt.Sprintf("lsw-%s-%s-%.2f", path.name, st.name, m)
					f := a.newFleet(opt, fleetDisk, st.mitt, salt)
					f.addEC2DiskNoise(opt)
					strat, ps := st.mk(f.c)
					// Split the aggregate offered rate evenly across the
					// client fleet; superposed Poisson arrivals are again
					// Poisson at the aggregate rate.
					iv := time.Duration(float64(opt.Clients) / (m * sat) * float64(time.Second))
					if iv <= 0 {
						iv = time.Nanosecond
					}
					ccfg := cluster.ClientConfig{
						Interval:    iv,
						Arrival:     cluster.ArrivalPoisson,
						ScaleFactor: 1,
						SLO:         *path.slo,
						Inflight:    &cluster.InflightGauge{},
						ExpectedOps: sweepPresize(opt.Duration, iv),
					}
					wcfg := ycsb.DefaultConfig(opt.Keys)
					if pi == 1 {
						wcfg = putOnlyConfig(opt.Keys)
					} else {
						ps = nil
					}
					clients := f.startClients(opt, ccfg, wcfg, strat, ps, false, salt+"-")
					a.run(opt.Duration, sweepDrain)
					o := sweepOut{legOut: harvest(clients, userLat), inflightHWM: ccfg.Inflight.Max}
					if pi == 1 {
						pc := putCounters(ps)
						o.busy, o.wasted = pc.Busy, pc.WastedWrites
					} else {
						o.wasted = wastedIOs(strat)
						if m, ok := strat.(*cluster.MittOSStrategy); ok {
							// No crashes in this experiment, so every
							// failover is an EBUSY fast reject.
							o.busy = m.Failovers
						}
					}
					o.snap = f.snapshot("loadsweep/" + path.name + "/" + st.name + fmt.Sprintf("/%.2fx", m))
					outs[i] = o
				})
			}
		}
	}
	runLegs(opt.Workers, ls)

	// The headline comparison rate: the highest multiplier still under
	// saturation (the knee's near side), where fast rejection should win
	// without the excuse that the system was overloaded anyway.
	knee := 0.0
	for _, m := range rates {
		if m < 1.0 && m > knee {
			knee = m
		}
	}
	if knee == 0 {
		knee = rates[len(rates)-1]
	}

	idx = 0
	for _, path := range paths {
		tb := &stats.Table{Header: []string{"strategy", "rate", "offered/s", "done/s",
			"goodput/s", "attain", "p50", "p95", "p99", "maxinfl", "busy", "wasted", "errs"}}
		for _, st := range strategies {
			for _, m := range rates {
				o := outs[idx]
				idx++
				offered := m * *path.sat
				attain := 0.0
				if n := o.met + o.missed; n > 0 {
					attain = 100 * float64(o.met) / float64(n)
				}
				tb.AddRow(st.name,
					fmt.Sprintf("%.2fx", m),
					fmt.Sprintf("%.0f", offered),
					fmt.Sprintf("%.0f", float64(o.finished)/opt.Duration.Seconds()),
					fmt.Sprintf("%.0f", float64(o.met)/opt.Duration.Seconds()),
					stats.FormatPct(attain),
					stats.FormatDuration(o.user.Percentile(50)),
					stats.FormatDuration(o.user.Percentile(95)),
					stats.FormatDuration(o.user.Percentile(99)),
					fmt.Sprint(o.inflightHWM),
					fmt.Sprint(o.busy),
					fmt.Sprint(o.wasted),
					fmt.Sprint(o.errors),
				)
				if m == knee {
					res.Series = append(res.Series, Series{
						Name:   fmt.Sprintf("%s/%s@%.2fx", path.name, st.name, m),
						Sample: o.user,
					})
				}
				if o.snap != nil {
					res.Metrics = append(res.Metrics, o.snap)
				}
				res.Sweep = append(res.Sweep, SweepPoint{
					Path:          path.name,
					Strategy:      st.name,
					RateMult:      m,
					OfferedPerSec: offered,
					DonePerSec:    float64(o.finished) / opt.Duration.Seconds(),
					GoodputPerSec: float64(o.met) / opt.Duration.Seconds(),
					AttainPct:     attain,
					P50Ns:         int64(o.user.Percentile(50)),
					P95Ns:         int64(o.user.Percentile(95)),
					P99Ns:         int64(o.user.Percentile(99)),
					InflightHWM:   o.inflightHWM,
					Busy:          o.busy,
					Wasted:        o.wasted,
					Errors:        o.errors,
					Finished:      o.finished,
				})
			}
		}
		res.Tables = append(res.Tables, tb)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"tables: gets then durable puts; attain = %% of finished requests at or under the per-path user SLO, "+
			"goodput = SLO-met completions per second, maxinfl = in-flight high-water mark, "+
			"busy = fast EBUSY rejections heard, wasted = IOs/writes executed past usefulness; "+
			"done/s counts completions within the run + %v drain, so past saturation it plateaus at capacity", sweepDrain))
	return res
}
