package cluster

import (
	"errors"
	"math"
	"time"

	"mittos/internal/core"
	"mittos/internal/sim"
)

// wasted reports whether a superseded reply stands for an IO that ran; fast
// refusals (EBUSY, node-down, revoked before dispatch) never reached a device.
func wasted(err error) bool {
	return !core.IsBusy(err) && !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrRevoked)
}

// GetResult reports one finished user-level get.
type GetResult struct {
	Latency time.Duration
	// Tries is how many replica attempts the winning path made.
	Tries int
	// Err is non-nil only when every path failed (e.g. all replicas
	// returned EBUSY and error fallback was disabled).
	Err error
}

// Strategy issues one client get and reports the user-observed completion.
// Implementations are the paper's comparison points (§7.2).
type Strategy interface {
	Name() string
	Get(key int64, onDone func(GetResult))
}

// Name implements Strategy: the label the experiments print.
func (*BaseStrategy) Name() string             { return "Base" }
func (*TimeoutStrategy) Name() string          { return "AppTO" }
func (*CloneStrategy) Name() string            { return "Clone" }
func (*HedgedStrategy) Name() string           { return "Hedged" }
func (*SnitchStrategy) Name() string           { return "Snitch" }
func (*C3Strategy) Name() string               { return "C3" }
func (*MittOSStrategy) Name() string           { return "MittOS" }
func (*TiedStrategy) Name() string             { return "Tied" }
func (*ConsistentMittOSStrategy) Name() string { return "MittOS-consistent" }

// BaseStrategy is vanilla MongoDB on vanilla Linux: ask the primary
// replica, wait however long it takes.
type BaseStrategy struct {
	C *Cluster
}

// Get implements Strategy.
func (s *BaseStrategy) Get(key int64, onDone func(GetResult)) {
	o := s.C.acquire(s, key, onDone, nil)
	o.send(o.replicas[0], 0, noTimer)
}

func (s *BaseStrategy) reply(o *op, a *attempt, err error) { o.deliver(1, err) }

// TimeoutStrategy is the "AppTO" comparison: cancel and retry on the next
// replica after TO, with the timeout disabled on the final try so users do
// not see read errors (§7.2). The timed-out attempt's IO is revoked if still
// queued; one already on the device runs and is discarded (WastedIOs). A
// crashed replica's refusal is retried at once rather than after TO.
type TimeoutStrategy struct {
	C  *Cluster
	TO time.Duration

	Retries   uint64
	WastedIOs uint64 // abandoned attempts whose IO ran anyway
}

// Get implements Strategy.
func (s *TimeoutStrategy) Get(key int64, onDone func(GetResult)) {
	s.try(s.C.acquire(s, key, onDone, &s.WastedIOs), 0)
}

func (s *TimeoutStrategy) try(o *op, i int) {
	to := s.TO
	if i == len(o.replicas)-1 {
		to = noTimer
	}
	o.send(o.replicas[i], 0, to).revocable = true
}

// fire abandons a timed-out attempt and revokes its IO, so the stale IO
// does not compete with later attempts for the device.
func (s *TimeoutStrategy) fire(o *op, a *attempt) {
	if !a.done {
		a.done = true
		s.Retries++
		if a.h != nil {
			a.h.Cancel()
		}
		a.release()
		s.try(o, a.ord)
	}
}

func (s *TimeoutStrategy) reply(o *op, a *attempt, err error) {
	a.done = true
	a.release()
	if errors.Is(err, ErrNodeDown) && a.ord < len(o.replicas) {
		s.Retries++
		s.try(o, a.ord)
		return
	}
	o.deliver(a.ord, err)
}

// CloneStrategy duplicates every request to two random replicas and takes
// the first response — "this proactive speculation however doubles the IO
// intensity" (§1).
type CloneStrategy struct {
	C   *Cluster
	RNG *sim.RNG

	WastedIOs uint64 // losing copies whose IO ran anyway
}

// Get implements Strategy.
func (s *CloneStrategy) Get(key int64, onDone func(GetResult)) {
	o := s.C.acquire(s, key, onDone, &s.WastedIOs)
	first, second := o.livePair(s.RNG)
	o.send(first, 0, noTimer)
	if second >= 0 {
		o.send(second, 0, noTimer)
	}
}

func (s *CloneStrategy) reply(o *op, a *attempt, err error) {
	if errors.Is(err, ErrNodeDown) && o.pending > 0 {
		return // that node crashed mid-flight; the sibling decides
	}
	o.deliver(o.sent, err)
}

// HedgedStrategy sends a secondary request only after the first has been
// outstanding longer than the expected p95 latency (Dean & Barroso; §7.2).
// Neither is cancelled, so the loser's IO is wasted work. A crashed
// primary's refusal fails over to the secondary without waiting.
type HedgedStrategy struct {
	C          *Cluster
	HedgeAfter time.Duration

	Hedges    uint64
	WastedIOs uint64 // losing copies whose IO ran anyway
}

// Get implements Strategy.
func (s *HedgedStrategy) Get(key int64, onDone func(GetResult)) {
	o := s.C.acquire(s, key, onDone, &s.WastedIOs)
	o.send(o.replicas[0], 0, s.HedgeAfter)
}

func (s *HedgedStrategy) fire(o *op, _ *attempt) {
	if !o.won && o.sent == 1 {
		s.Hedges++
		o.send(o.replicas[1], 0, noTimer)
	}
}

func (s *HedgedStrategy) reply(o *op, a *attempt, err error) {
	down := errors.Is(err, ErrNodeDown)
	if down && o.sent == 1 {
		o.send(o.replicas[1], 0, noTimer) // the timer then stays quiet
		return
	}
	if down && o.pending > 0 {
		return // the other copy may still answer
	}
	// Tries counts every copy issued, even when the primary wins.
	o.deliver(o.sent, err)
}

// ewma folds latency sample x into m[n] with weight 0.3 (Snitch and C3);
// the first sample seeds it.
func ewma(m map[int]float64, n int, x float64) {
	prev, seen := m[n]
	if !seen {
		prev = x
	}
	m[n] = prev*(1-0.3) + x*0.3
}

// SnitchStrategy keeps an EWMA of each replica's recent latency and always
// asks the currently-fastest one — Cassandra's dynamic snitch (§7.8.3).
type SnitchStrategy struct {
	C *Cluster

	ewma map[int]float64
}

// Get implements Strategy; unknown replicas score 0 and are explored first.
func (s *SnitchStrategy) Get(key int64, onDone func(GetResult)) {
	if s.ewma == nil {
		s.ewma = make(map[int]float64)
	}
	o := s.C.acquire(s, key, onDone, nil)
	o.send(o.bestLive(func(r int) float64 { return s.ewma[r] }), 0, noTimer)
}

func (s *SnitchStrategy) reply(o *op, a *attempt, err error) {
	ewma(s.ewma, a.node, float64(s.C.Eng.Now().Sub(o.start)))
	o.deliver(1, err)
}

// c3Decay ages C3's server-reported queue feedback (its rate control).
const c3Decay = 2 * time.Second

// C3Strategy implements C3's replica ranking (Suresh et al., NSDI'15): an
// EWMA of latencies plus a cubic penalty on the queue size piggybacked on
// responses. That feedback is why C3 misses sub-second bursts (§7.8.3): a
// replica's estimate is as old as its last response.
type C3Strategy struct {
	C *Cluster

	lat  map[int]float64  // EWMA response latency per replica
	qEst map[int]float64  // server-reported queue size (stale feedback)
	qAt  map[int]sim.Time // when that feedback was received
	out  map[int]int      // client-local concurrency compensation
}

// Get implements Strategy.
func (s *C3Strategy) Get(key int64, onDone func(GetResult)) {
	if s.lat == nil {
		s.lat = make(map[int]float64)
		s.qEst = make(map[int]float64)
		s.qAt = make(map[int]sim.Time)
		s.out = make(map[int]int)
	}
	o := s.C.acquire(s, key, onDone, nil)
	o.probe = true
	best := o.bestLive(func(r int) float64 {
		// Stale reported depth, aged, plus our own outstanding requests.
		age := float64(o.start.Sub(s.qAt[r])) / float64(c3Decay)
		q := s.qEst[r]/(1+age) + float64(s.out[r]) + 1
		return s.lat[r] * q * q * q
	})
	s.out[best]++
	o.send(best, 0, noTimer)
}

// reply takes in the piggybacked queue depth, one hop stale by now.
func (s *C3Strategy) reply(o *op, a *attempt, err error) {
	n, now := a.node, s.C.Eng.Now()
	s.out[n]--
	s.qEst[n] = float64(a.queue)
	s.qAt[n] = now
	ewma(s.lat, n, float64(now.Sub(o.start)))
	o.deliver(1, err)
}

// MittOSStrategy is the paper's contribution at the client: send with the
// deadline SLO, fail over instantly on EBUSY or a crashed replica's refusal,
// and disable the deadline on the final try so the user never sees an error
// (§5). With UseWaitHint (§7.8.1/§8.1), when every replica rejected, a 4th
// try goes to the one that predicted the shortest wait.
type MittOSStrategy struct {
	C        *Cluster
	Deadline time.Duration
	// UseWaitHint enables the least-busy 4th retry extension.
	UseWaitHint bool

	Failovers uint64
	LastDitch uint64
}

// Get implements Strategy.
func (s *MittOSStrategy) Get(key int64, onDone func(GetResult)) {
	s.C.acquire(s, key, onDone, nil).try(s.Deadline, !s.UseWaitHint)
}

func (s *MittOSStrategy) reply(o *op, a *attempt, err error) {
	down := errors.Is(err, ErrNodeDown)
	if a.extra || !(down || core.IsBusy(err)) {
		o.deliver(a.ord, err)
		return
	}
	wait := busyWait(err)
	if down {
		wait = math.MaxInt64 // "busy forever": never the least-busy pick
	}
	o.rejects = append(o.rejects, reject{a.node, wait})
	s.Failovers++
	switch {
	case o.idx < len(o.replicas)-1:
		o.idx++
		o.try(s.Deadline, !s.UseWaitHint)
	case down && !s.UseWaitHint:
		o.deliver(a.ord, err) // the deadline-free final try crashed
	default:
		s.LastDitch++ // all refused: retry the least busy live one, deadline-free
		best := -1
		for j, r := range o.rejects {
			if !s.C.Nodes[r.node].Down() && (best < 0 || r.wait < o.rejects[best].wait) {
				best = j
			}
		}
		if best < 0 {
			o.deliver(len(o.replicas), err) // the whole replica set is down
			return
		}
		o.send(o.rejects[best].node, 0, noTimer).extra = true
	}
}

// TiedStrategy approximates Dean & Barroso's "tied requests": two copies a
// small delay apart, the first to begin execution cancelling its sibling.
// The paper could not evaluate it (§7.8.2): a stock kernel has no "begin
// execution" signal, and neither do device-resident IOs here. So, as an
// application-level port would, the *winner's completion* cancels the
// sibling, which helps only while the sibling is still queued.
type TiedStrategy struct {
	C *Cluster
	// Delay before the tied copy; 0 means Dean & Barroso's 2× the hop.
	Delay time.Duration
	RNG   *sim.RNG

	Cancelled uint64
	WastedIOs uint64 // losing copies already on the device: run, then discarded
}

// Get implements Strategy: the tied copy (o.idx) follows after Delay
// unless the get is won; with under two live replicas one plain copy goes.
func (s *TiedStrategy) Get(key int64, onDone func(GetResult)) {
	o := s.C.acquire(s, key, onDone, &s.WastedIOs)
	first, second := o.livePair(s.RNG)
	o.idx = second
	a := o.send(first, 0, noTimer)
	if second < 0 {
		return
	}
	a.revocable = true
	delay := s.Delay
	if delay <= 0 {
		delay = 2 * s.C.Net.Config().HopLatency
	}
	o.arm(a, delay)
}

// fire is the delay timer or, with a == nil, the winner's cancel message
// reaching the sibling's replica: revoke whatever is still queued.
func (s *TiedStrategy) fire(o *op, a *attempt) {
	if a != nil {
		if !o.won {
			o.send(o.idx, 0, noTimer).revocable = true
		}
		return
	}
	for _, b := range o.attempts {
		if b.h != nil {
			b.h.Cancel()
			b.release()
			s.Cancelled++
		}
	}
}

func (s *TiedStrategy) reply(o *op, a *attempt, err error) {
	if errors.Is(err, ErrNodeDown) && o.idx >= 0 && (o.pending > 0 || a.ord == 1) {
		return // a crashed node; the sibling, out or still to be sent, decides
	}
	a.release()
	if o.idx >= 0 {
		for _, b := range o.attempts {
			b.done = true // a sibling still in flight is not served
		}
		o.message()
	}
	o.deliver(a.ord, err)
}

// ConsistentMittOSStrategy is §8.3's conservative MittOS: "do not failover
// until the other replicas are no longer stale". The client keeps the
// highest version it has read per key (a session token). On EBUSY or a
// crashed replica's refusal it fails over only to replicas at least that
// fresh; if none is, it waits out the busy replica rather than break
// monotonic reads, and fails the get when that replica is down.
type ConsistentMittOSStrategy struct {
	C        *Cluster
	Deadline time.Duration
	session  map[int64]uint64 // the highest version read per key

	Failovers    uint64
	StaleSkips   uint64 // replicas skipped for staleness
	ForcedToWait uint64 // requests that had to wait on the busy replica
}

// Get implements Strategy.
func (s *ConsistentMittOSStrategy) Get(key int64, onDone func(GetResult)) {
	if s.session == nil {
		s.session = make(map[int64]uint64)
	}
	o := s.C.acquire(s, key, onDone, nil)
	o.minVer = s.session[key]
	o.try(s.Deadline, true)
}

func (s *ConsistentMittOSStrategy) reply(o *op, a *attempt, err error) {
	down := errors.Is(err, ErrNodeDown)
	if !a.extra && (down || core.IsBusy(err)) {
		s.Failovers++
		for j := o.idx + 1; j < len(o.replicas); j++ {
			if s.C.Nodes[o.replicas[j]].KeyVersion(o.key) >= o.minVer {
				o.idx = j
				o.try(s.Deadline, true)
				return
			}
			s.StaleSkips++
		}
		if !down {
			s.ForcedToWait++
			o.send(a.node, 0, noTimer).extra = true
			return
		}
	}
	if v := s.C.Nodes[a.node].KeyVersion(o.key); v > s.session[o.key] {
		s.session[o.key] = v // advance the session to what was just read
	}
	o.deliver(a.ord, err)
}
