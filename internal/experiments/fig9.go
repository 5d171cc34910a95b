package experiments

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/sim"
	"mittos/internal/ssd"
	"mittos/internal/stats"
	"mittos/internal/trace"
)

// Fig9Options shape the §7.6 accuracy study.
type Fig9Options struct {
	Seed int64
	// TraceLen is the synthesized length per workload; the busiest Window
	// of it is replayed (the paper picks "the busiest 5 minutes").
	TraceLen time.Duration
	Window   time.Duration
	// SSDRerate compresses the disk-born traces for the flash test (the
	// paper re-rates 128× for 128 chips).
	SSDRerate float64
}

// DefaultFig9Options mirror §7.6.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{Seed: 1, TraceLen: 20 * time.Minute, Window: 5 * time.Minute, SSDRerate: 128}
}

// QuickFig9Options shrink the run.
func QuickFig9Options() Fig9Options {
	return Fig9Options{Seed: 1, TraceLen: 4 * time.Minute, Window: time.Minute, SSDRerate: 128}
}

// Fig9Row is one (trace, layer) accuracy measurement.
type Fig9Row struct {
	Trace    string
	Layer    string
	Deadline time.Duration
	Acc      core.Accuracy
}

// Fig9 reproduces Figure 9: false-positive and false-negative rates of
// MittCFQ and MittSSD when replaying the busiest window of five production
// workloads in shadow mode, with the deadline at each trace's p95 (§7.6).
// It also runs the precision ablation the section describes: the naive
// FIFO-TnextFree predictor whose inaccuracy is dramatically higher.
func Fig9(opt Fig9Options) (*Result, []Fig9Row) {
	res := &Result{ID: "fig9", Title: "Prediction inaccuracy on production traces (§7.6)"}
	var rows []Fig9Row
	tb := &stats.Table{Header: []string{"trace", "layer", "deadline(p95)",
		"FP%", "FN%", "inacc%", "mean |diff|"}}

	for _, prof := range trace.Profiles(500 << 30) {
		full := trace.Generate(prof, opt.TraceLen, sim.NewRNG(opt.Seed, "fig9-"+prof.Name))
		busiest := full.Busiest(opt.Window)

		for _, l := range fig9Layers {
			deadline, acc := fig9Replay(opt, busiest, l)
			rows = append(rows, Fig9Row{Trace: prof.Name, Layer: l.name, Deadline: deadline, Acc: acc})
			tb.AddRow(prof.Name, l.name, stats.FormatDuration(deadline),
				fmt.Sprintf("%.2f", 100*acc.FalsePosRate()),
				fmt.Sprintf("%.2f", 100*acc.FalseNegRate()),
				fmt.Sprintf("%.2f", 100*acc.InaccuracyRate()),
				stats.FormatDuration(acc.MeanAbsDiff()))
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"shadow mode: EBUSY recorded on the descriptor, IO still runs (§7.6)",
		"'Naive' is the no-SSTF-model, no-calibration ablation on the noop path",
		"'MittDL' runs the same admission on the deadline scheduler (§3.4 generality)")
	return res, rows
}

// derateForDisk slows a trace down to a sustainable single-disk load. The
// original volumes behind the production traces were multi-spindle arrays;
// replaying them 1:1 against one disk just measures saturation, not
// prediction quality.
func derateForDisk(tr *trace.Trace, cfg disk.Config) *trace.Trace {
	st := tr.Stats()
	if st.Records == 0 || st.Duration <= 0 {
		return tr
	}
	// Offered utilization over 1s windows; derate so even the burstiest
	// window stays below the target (saturated minutes measure queueing
	// growth, not prediction quality).
	svcOf := func(size int) time.Duration {
		return 6*time.Millisecond + time.Duration(size/1024)*cfg.TransferPerKB
	}
	window := time.Second
	var maxUtil float64
	cur := time.Duration(0)
	j := 0
	for i := range tr.Records {
		cur += svcOf(tr.Records[i].Size)
		for tr.Records[j].At < tr.Records[i].At-window {
			cur -= svcOf(tr.Records[j].Size)
			j++
		}
		if u := cur.Seconds() / window.Seconds(); u > maxUtil {
			maxUtil = u
		}
	}
	const target = 0.75
	if maxUtil <= target {
		return tr
	}
	return tr.Rerate(target / maxUtil)
}

// fig9Op is the pooled replay completion: it records the measured wait and
// recycles the request descriptor. Rejected IOs never queue (and late
// cancels are Remove()d from the scheduler before the EBUSY delivery), so
// the release at the terminal is always the last reference.
type fig9Op struct {
	waits *stats.Sample
	pool  *sim.Freelist[fig9Op]
	req   *blockio.Request
	fn    func(error) // pre-bound op.done
}

func newFig9Op() *fig9Op { op := &fig9Op{}; op.fn = op.done; return op }

func (op *fig9Op) done(err error) {
	req, waits := op.req, op.waits
	op.req = nil
	op.pool.Put(op)
	if err == nil {
		w := req.Latency() - req.PredictedService
		if w < 0 {
			w = 0
		}
		waits.Add(w)
	}
	req.Release()
}

// fig9Layer is one row of the §7.6 study: the stack a trace replays on.
type fig9Layer struct {
	name   string
	device cluster.DeviceKind
	sched  cluster.SchedulerKind
	naive  bool
}

var fig9Layers = []fig9Layer{
	{name: "MittCFQ", sched: cluster.SchedulerCFQ},
	// Scheduler generality (§3.4): the same admission idea on the deadline
	// scheduler.
	{name: "MittDL", sched: cluster.SchedulerDeadline},
	{name: "MittSSD", device: cluster.DeviceSSD},
	// The "without our precision improvements" ablation: no SSTF model, no
	// calibration, on the noop path.
	{name: "Naive", sched: cluster.SchedulerNoop, naive: true},
}

// fig9Replay replays a trace against one machine: a disk, or flash with the
// trace re-rated for it. Pass 1 (no SLO) measures the p95 wait for the
// deadline; pass 2 replays in shadow mode, on pass 1's SSD when the machine
// has one: the pool resets it to factory state with the FTL it grew.
func fig9Replay(opt Fig9Options, tr *trace.Trace, l fig9Layer) (time.Duration, core.Accuracy) {
	floor := time.Millisecond
	if l.device == cluster.DeviceSSD {
		tr, floor = tr.Rerate(opt.SSDRerate), 200*time.Microsecond
	} else {
		tr = derateForDisk(tr, disk.DefaultConfig())
	}
	var ssds ssd.Pool
	waits, _ := fig9Pass(opt, tr, 0, l, &ssds)
	deadline := waits.Percentile(95)
	if deadline <= 0 {
		deadline = floor
	}
	_, acc := fig9Pass(opt, tr, deadline, l, &ssds)
	return deadline, acc
}

// fig9Pass replays tr once with every read at deadline (0 = no SLO) and
// returns the measured waits and the layer's shadow-mode accuracy. An SSD
// comes from ssds and goes back to it once the replay is done.
func fig9Pass(opt Fig9Options, tr *trace.Trace, deadline time.Duration, l fig9Layer,
	ssds *ssd.Pool) (*stats.Sample, core.Accuracy) {
	eng := sim.NewEngine()
	cfg := cluster.NodeConfig{Device: l.device, DiskConfig: disk.DefaultConfig(),
		SSDConfig: ssd.DefaultConfig(), Mitt: true, MittOptions: core.DefaultOptions(),
		DiskProfile: sharedDiskProfile, SSDPool: ssds}
	cfg.MittOptions.Shadow = true
	cfg.MittOptions.Thop = 0 // single machine, no failover hop (§7.6)
	if l.naive {
		cfg.MittOptions.Naive, cfg.MittOptions.Calibrate = true, false
	}
	capacity := cfg.SSDConfig.LogicalBytes()
	var rng *sim.RNG
	if l.device != cluster.DeviceSSD {
		capacity, rng = cfg.DiskConfig.CapacityBytes, sim.NewRNG(opt.Seed, "fig9-disk")
	}
	pools := &cluster.Pools{}
	st := cluster.NewStack(eng, cfg, l.sched, rng, nil, pools)
	waits := stats.NewSample(len(tr.Records))
	var ids blockio.IDGen
	var ops sim.Freelist[fig9Op]
	rep := trace.NewReplayer(eng, tr.Clamp(capacity), func(rec trace.Record) {
		req := pools.Reqs.Get()
		req.ID, req.Op, req.Offset = ids.Next(), rec.Op, rec.Offset
		req.Size, req.Proc = rec.Size, 1
		if rec.Op == blockio.Read {
			req.Deadline = deadline
		}
		op := ops.Get(newFig9Op)
		op.waits, op.pool, op.req = waits, &ops, req
		st.Target.SubmitSLO(req, op.fn)
	})
	rep.Start()
	eng.Run()
	if st.SSD != nil {
		ssds.Put(st.SSD)
	}
	return waits, st.Mitt.Accuracy()
}
