package experiments

import (
	"testing"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/metrics"
)

// Span property tests: run real experiment legs with full span tracing and
// check the per-IO invariants the observability layer promises —
//
//  1. every submitted IO terminates at most once, and a terminated span is
//     exactly one of completed/error XOR busy/busy-late XOR revoked, with
//     the per-node counters agreeing span-for-span;
//  2. stage timestamps are monotone: an IO never exits a queue before it
//     entered it, never starts service before reaching the device, and
//     never ends before it was submitted;
//  3. MittCFQ/MittSSD/MittCache never fast-reject an IO whose predicted
//     wait was within its deadline (§3.3: EBUSY means the SLO is
//     predictably violated, never a spurious refusal).

// snapCounter sums a snapshot counter across rows.
func snapCounter(sn *metrics.Snapshot, resource, counter string) uint64 {
	var v uint64
	for _, c := range sn.Counters {
		if c.Resource == resource && c.Counter == counter {
			v += c.Value
		}
	}
	return v
}

// checkSpanInvariants audits one leg's snapshot.
func checkSpanInvariants(t *testing.T, sn *metrics.Snapshot) {
	t.Helper()
	for _, v := range sn.Violations {
		t.Errorf("%s: online violation: %s", sn.Leg, v)
	}
	if sn.SpansDropped != 0 {
		t.Fatalf("%s: %d spans dropped despite unlimited tracing", sn.Leg, sn.SpansDropped)
	}
	if got, want := uint64(len(sn.Spans)), snapCounter(sn, "node", "submitted"); got != want {
		t.Errorf("%s: %d spans for %d submitted IOs", sn.Leg, got, want)
	}

	var completed, rejected, revoked, inflight uint64
	for _, sp := range sn.Spans {
		switch sp.Terminals {
		case 0:
			inflight++
			if sp.Verdict != "" || sp.EndNs != -1 {
				t.Errorf("%s: io#%d node=%d unterminated but verdict=%q end=%d",
					sn.Leg, sp.ID, sp.Node, sp.Verdict, sp.EndNs)
			}
			continue
		case 1:
		default:
			t.Errorf("%s: io#%d node=%d terminated %d times", sn.Leg, sp.ID, sp.Node, sp.Terminals)
			continue
		}

		switch sp.Verdict {
		case "completed", "error":
			completed++
		case "busy", "busy-late":
			rejected++
		case "revoked":
			revoked++
		default:
			t.Errorf("%s: io#%d node=%d unknown verdict %q", sn.Leg, sp.ID, sp.Node, sp.Verdict)
		}

		// Stage monotonicity over the stages the IO reached (-1 = skipped).
		stages := []struct {
			name string
			ns   int64
		}{
			{"submit", sp.SubmitNs},
			{"sched-enter", sp.SchedEnterNs},
			{"sched-exit", sp.SchedExitNs},
			{"dev-enter", sp.DevEnterNs},
			{"dev-start", sp.DevStartNs},
			{"end", sp.EndNs},
		}
		prev := stages[0]
		for _, st := range stages[1:] {
			if st.ns < 0 {
				continue
			}
			if st.ns < prev.ns {
				t.Errorf("%s: io#%d node=%d %s@%d precedes %s@%d",
					sn.Leg, sp.ID, sp.Node, st.name, st.ns, prev.name, prev.ns)
			}
			prev = st
		}

		// Fast rejections must be justified by the prediction: an IO whose
		// predicted wait fit the deadline is never refused. (busy-late is
		// exempt — there the wait grew after a correct admission.)
		if sp.Verdict == "busy" && sp.DeadlineNs > 0 && sp.PredWaitNs >= 0 &&
			sp.PredWaitNs <= sp.DeadlineNs {
			t.Errorf("%s: io#%d node=%d rejected with predicted wait %v <= deadline %v",
				sn.Leg, sp.ID, sp.Node,
				time.Duration(sp.PredWaitNs), time.Duration(sp.DeadlineNs))
		}
	}

	if want := snapCounter(sn, "node", "completed"); completed != want {
		t.Errorf("%s: %d completed spans vs node completed=%d", sn.Leg, completed, want)
	}
	if want := snapCounter(sn, "node", "rejected"); rejected != want {
		t.Errorf("%s: %d busy spans vs node rejected=%d", sn.Leg, rejected, want)
	}
	if total := completed + rejected + revoked + inflight; total != uint64(len(sn.Spans)) {
		t.Errorf("%s: span verdicts %d don't cover %d spans", sn.Leg, total, len(sn.Spans))
	}
}

// TestPutSpanInvariants runs mixed read/write MittOS legs with full span
// tracing and audits the write path: WAL group-commit IOs obey the same
// exactly-once / stage-monotonicity / justified-rejection span rules as
// reads, and the quorum accounting closes — after the drain every copy sent
// has exactly one classified reply and every user put exactly one terminal.
func TestPutSpanInvariants(t *testing.T) {
	for _, wl := range ycsbMixWorkloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			opt := QuickOptions()
			opt.Duration = 4 * time.Second
			opt.Metrics = true
			opt.TraceIOs = -1
			a := newLegArena()
			f := a.newFleet(opt, fleetDisk, true, "putspans-"+wl.name)
			f.addEC2DiskNoise(opt)
			strat := &cluster.MittOSStrategy{C: f.c, Deadline: 20 * time.Millisecond, UseWaitHint: true}
			ps := &cluster.MittOSPut{C: f.c, Deadline: 5 * time.Millisecond, UseWaitHint: true}
			f.startClients(opt, opt.clientConfig(1), wl.config(opt.Keys), strat, ps, wl.rmw, "ymix-")
			a.run(opt.Duration, legDrain)

			checkSpanInvariants(t, f.snapshot("putspans/"+wl.name))

			pc := ps.PutCounters
			if pc.Puts == 0 || pc.CopiesSent == 0 {
				t.Fatalf("leg issued no puts (puts=%d copies=%d)", pc.Puts, pc.CopiesSent)
			}
			if got := pc.Acks + pc.Busy + pc.NodeDown + pc.Errors; got != pc.CopiesSent {
				t.Errorf("quorum accounting leaks: acks %d + busy %d + down %d + errs %d = %d, want copies sent %d",
					pc.Acks, pc.Busy, pc.NodeDown, pc.Errors, got, pc.CopiesSent)
			}
			if got := pc.Quorums + pc.Failed; got != pc.Puts {
				t.Errorf("put terminals not exactly-once: quorums %d + failed %d = %d, want puts %d",
					pc.Quorums, pc.Failed, got, pc.Puts)
			}
			if pc.NodeDown != 0 {
				t.Errorf("no node crashed, yet %d copies saw ErrNodeDown", pc.NodeDown)
			}
		})
	}
}

func TestSpanInvariantsFig4(t *testing.T) {
	opt := QuickFig4Options()
	opt.Duration = 4 * time.Second
	opt.Metrics = true
	opt.TraceIOs = -1
	res := Fig4(opt)
	if len(res.Metrics) != 12 {
		t.Fatalf("fig4 attached %d snapshots, want 12 legs", len(res.Metrics))
	}
	for _, sn := range res.Metrics {
		checkSpanInvariants(t, sn)
	}
}

func TestSpanInvariantsFig7(t *testing.T) {
	opt := tinyOptions()
	opt.Duration = 3 * time.Second
	opt.Metrics = true
	opt.TraceIOs = -1
	res := Fig7(opt)
	if len(res.Metrics) != 9 {
		t.Fatalf("fig7 attached %d snapshots, want 1 base + 8 strategy legs", len(res.Metrics))
	}
	for _, sn := range res.Metrics {
		checkSpanInvariants(t, sn)
	}
}
