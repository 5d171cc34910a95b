package main

import (
	"fmt"
	"os"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// -calibrate measures the fleet workloads' frozen inputs at the dev seed,
// the way the loadsweep experiment measures its own: the deadline, timeout
// and hedge knobs are a noisy Base leg's p95 per path, and saturation is
// the completion rate of closed-loop Base clients with near-zero think
// time. It then records every workload's digest at the dev and held-out
// seeds. Re-running it changes the benchmark; a change that claims a gain
// must not.

// calibrateMs is the virtual length of each calibration leg.
const calibrateMs = 30000

func runCalibrate() error {
	cal, err := loadCalibration()
	if err != nil {
		return err
	}
	p := &cal.Fleet
	seed := cal.DevSeed
	// The knob leg: open-loop YCSB-A clients (half reads, half zipfian
	// updates) at the experiments' 15 ms per-client interval.
	f := newFleet(*p, seed, "cal-knobs", false, nil)
	f.legMs = calibrateMs
	f.get, f.put = &cluster.BaseStrategy{C: f.c}, &cluster.BasePut{C: f.c}
	mix := updateOnly()
	mix.ReadFraction = 0.5
	ccfg := cluster.DefaultClientConfig()
	ccfg.Interval = 15 * time.Millisecond
	ccfg.ExpectedOps = int(ms(calibrateMs)/ccfg.Interval) + 1
	f.startClients(fleetClients, ccfg, mix, seed, "cal-knobs", nil)
	f.run(nil, 0)
	gets, puts := stats.NewSample(0), stats.NewSample(0)
	for _, cl := range f.clients {
		gets.Merge(cl.IOLatencies)
		puts.Merge(cl.PutLatencies)
	}
	p.GetP95Ns, p.PutP95Ns = int64(gets.Percentile(95)), int64(puts.Percentile(95))

	// The saturation probes: ~3 outstanding requests per node.
	sat := func(put bool) float64 {
		f := newFleet(*p, seed, fmt.Sprintf("cal-sat-%v", put), false, nil)
		f.legMs = calibrateMs
		f.get = &cluster.BaseStrategy{C: f.c}
		wcfg := ycsb.DefaultConfig(fleetKeys)
		if put {
			f.put = &cluster.BasePut{C: f.c}
			wcfg = updateOnly()
		}
		f.startClients(3*p.Nodes, cluster.ClientConfig{
			Interval: time.Microsecond, ScaleFactor: 1, Closed: true,
			ExpectedOps: calibrateMs / 2,
		}, wcfg, seed, "cal-sat", nil)
		f.run(nil, 0)
		done := 0
		for _, cl := range f.clients {
			done += cl.Finished()
		}
		return float64(done) / ms(calibrateMs).Seconds()
	}
	p.GetSatPerS, p.PutSatPerS = sat(false), sat(true)
	p.GetRates, p.PutRates = nil, nil
	for _, m := range rateMults {
		p.GetRates = append(p.GetRates, m*p.GetSatPerS)
		p.PutRates = append(p.PutRates, m*p.PutSatPerS)
	}
	fmt.Printf("knobs: get p95 %v, put p95 %v; saturation: gets %.0f/s, puts %.0f/s\n",
		time.Duration(p.GetP95Ns), time.Duration(p.PutP95Ns), p.GetSatPerS, p.PutSatPerS)

	cal.Digests = map[string]map[string]string{}
	for _, w := range workloads {
		cal.Digests[w.name] = map[string]string{}
		for _, s := range []int64{cal.DevSeed, cal.HeldOutSeed} {
			rec, _ := runPass(w.legs(cal, s), passTimed)
			fmt.Printf("%s seed %d: issued %d failed %d run %.2fs digest %016x\n",
				w.name, s, rec.Issued, rec.Failed, rec.run().Seconds(), rec.Digest)
			for _, e := range rec.Errors {
				fmt.Fprintln(os.Stderr, "  check failed:", e)
			}
			if len(rec.Errors) > 0 || rec.Failed > 0 {
				return fmt.Errorf("%s seed %d: calibration run failed", w.name, s)
			}
			cal.Digests[w.name][fmt.Sprint(s)] = fmt.Sprintf("%016x", rec.Digest)
		}
	}
	return cal.save()
}
