package cluster

import (
	"errors"
	"math"
	"time"

	"mittos/internal/core"
	"mittos/internal/sim"
)

// policy is what a client strategy adds to the replica-attempt kernel. Its
// Get or Put issues the fan-out; reply handles each reply landing before the
// terminal: send more, deliver, or wait for a sibling. A put reply is tallied
// first, and the put fails if nothing short of W is left in flight.
type policy interface {
	reply(o *op, a *attempt, err error)
}

// timed is a policy that arms timers (o.arm) or sends messages (o.message):
// fire runs the timer armed on a, or the message when a is nil.
type timed interface {
	fire(o *op, a *attempt)
}

// op is one user-level get or put, pooled on the cluster (strategies live
// one leg) and recycled with its attempts once nothing refers to it.
type op struct {
	pol     policy
	c       *Cluster
	key     int64
	start   sim.Time
	onGet   func(GetResult)
	onPut   func(PutResult)
	pc      *PutCounters // put ops: every reply is tallied here
	wasted  *uint64      // get ops: superseded replies whose IO ran count here
	probe   bool         // sample the server's queue depth at serve time (C3)
	refs    int          // attempt chains, timers and messages still to run
	won     bool         // the get's terminal went out
	sent    int          // attempts issued
	pending int          // issued attempts that have not replied before the terminal
	idx     int          // policy cursor: the replica being tried, or Tied's second node
	ring    int          // next ring offset past the replica set, for put handoffs
	minVer  uint64       // MittOS-consistent: the session version a read may not go below
	q       quorumState

	replicas []int
	rejects  []reject   // MittOS: refusals and their predicted waits, in order
	attempts []*attempt // recycled with the op
	msgFn    func()     // pre-bound o.onMessage
}

// reject is a refusing node and its predicted wait: a last-ditch candidate.
type reject struct {
	node int
	wait time.Duration
}

// busyWait is an EBUSY's predicted-wait hint, or 0 without one.
func busyWait(err error) time.Duration {
	if be, ok := err.(*core.BusyError); ok {
		return be.PredictedWait
	}
	return 0
}

// attempt is one copy of an op's request at one replica.
type attempt struct {
	op        *op
	node      int
	ord       int // 1-based issue order: the Tries a win through it reports
	deadline  time.Duration
	revocable bool // served through ServeGetCancelable
	extra     bool // beyond the base plan: a put handoff, a get's deadline-free last try
	done      bool // superseded: not served if still in flight, and its reply is late
	h         *ServeHandle
	err       error
	queue     int // the server's queue depth at serve time, when o.probe

	sendFn, replyFn, fireFn func()
	serveFn                 func(error)
}

func newOp() *op {
	o := &op{}
	o.msgFn = o.onMessage
	return o
}

func newAttempt() *attempt {
	a := &attempt{}
	a.sendFn, a.serveFn, a.replyFn, a.fireFn = a.send, a.serve, a.reply, a.fire
	return a
}

// acquire takes a pooled op; wasted (or nil) counts a get's late replies that ran.
func (c *Cluster) acquire(pol policy, key int64, onDone func(GetResult), wasted *uint64) *op {
	o := c.pools.ops.Get(newOp)
	o.pol, o.c, o.key, o.start = pol, c, key, c.Eng.Now()
	o.replicas = c.ReplicasInto(key, o.replicas)
	o.onGet, o.wasted = onDone, wasted
	return o
}

// startPut issues a put that needs w acks (0: a majority of R): one copy to
// each replica, with timer (or noTimer) armed on the first.
func (c *Cluster) startPut(pol policy, pc *PutCounters, key int64, w int,
	onDone func(PutResult), deadline, timer time.Duration) {
	pc.Puts++
	o := c.acquire(pol, key, nil, nil)
	o.onPut, o.pc, o.ring = onDone, pc, c.R
	if w <= 0 {
		w = c.R/2 + 1 // majority: the Riak/Cassandra QUORUM default
	}
	o.q = quorumState{w: w}
	for _, r := range o.replicas {
		o.send(r, deadline, timer)
		timer = noTimer
	}
}

// noTimer is send's timer argument for "arm none".
const noTimer time.Duration = -1

// send issues an attempt to node, arming timer on it first unless it is
// noTimer. Flags set on the result still apply: the hop has not landed.
func (o *op) send(node int, deadline, timer time.Duration) *attempt {
	a := o.c.pools.attempts.Get(newAttempt)
	a.op, a.node, a.deadline = o, node, deadline
	o.sent++
	o.pending++
	o.refs++
	a.ord = o.sent
	if o.pc != nil {
		o.q.add(1)
		o.pc.CopiesSent++
	}
	o.attempts = append(o.attempts, a)
	if timer != noTimer {
		o.arm(a, timer)
	}
	o.c.Net.Send(a.sendFn)
	return a
}

// try sends replica o.idx with deadline, or with none if freeLast and it is
// the last replica: the final try disables the deadline (§5).
func (o *op) try(deadline time.Duration, freeLast bool) {
	if freeLast && o.idx == len(o.replicas)-1 {
		deadline = 0
	}
	o.send(o.replicas[o.idx], deadline, noTimer)
}

// takeRing returns the next live ring node past the replica set, or -1.
func (o *op) takeRing() int {
	nodes := o.c.Nodes
	for o.ring < len(nodes) {
		n := (o.replicas[0] + o.ring) % len(nodes)
		o.ring++
		if !nodes[n].Down() {
			return n
		}
	}
	return -1
}

// arm runs fire(o, a) after d; fire must notice if the op moved on.
func (o *op) arm(a *attempt, d time.Duration) {
	o.refs++
	o.c.Eng.After(d, a.fireFn)
}

// message runs the policy's fire(o, nil) one network hop away.
func (o *op) message() {
	o.refs++
	o.c.Net.Send(o.msgFn)
}

func (o *op) onMessage() {
	o.pol.(timed).fire(o, nil)
	o.deref()
}

func (a *attempt) fire() {
	o := a.op
	o.pol.(timed).fire(o, a)
	o.deref()
}

// send is the request hop landing at the replica.
func (a *attempt) send() {
	o := a.op
	if a.done {
		o.deref() // superseded before the request landed: nothing is served
		return
	}
	n := o.c.Nodes[a.node]
	switch {
	case o.pc != nil:
		n.ServePutDurable(o.key, a.deadline, a.serveFn)
	case a.revocable:
		a.h = n.ServeGetCancelable(o.key, a.deadline, a.serveFn)
	default:
		n.ServeGet(o.key, a.deadline, a.serveFn)
	}
}

func (a *attempt) serve(err error) {
	o := a.op
	a.err = err
	if errors.Is(err, ErrRevoked) {
		// A revocation dropped the IO before it ran, or the teardown harvest
		// reclaimed a stranded serve: resolve in place, without a hop.
		a.release()
		a.reply()
		return
	}
	if o.probe {
		a.queue = o.c.Nodes[a.node].OutstandingIOs()
	}
	o.c.Net.Send(a.replyFn)
}

// reply is the reply hop landing back at the client.
func (a *attempt) reply() {
	o, err := a.op, a.err
	switch {
	case o.pc != nil:
		o.putReply(a, err)
	case a.done || o.won:
		if o.wasted != nil && wasted(err) {
			*o.wasted++
		}
	case errors.Is(err, ErrRevoked):
		// Teardown harvest: end the get; new attempts would only strand.
		o.deliver(a.ord, err)
	default:
		o.pending--
		o.pol.reply(o, a, err)
	}
	o.deref()
}

func (o *op) putReply(a *attempt, err error) {
	o.pc.count(err)
	switch o.q.report(err) {
	case quorumReached:
		o.putDone(nil)
	case quorumLate:
		if a.extra && wasted(err) {
			o.pc.WastedWrites++
		}
	case quorumPending:
		if !errors.Is(err, ErrRevoked) { // teardown harvest: send nothing new
			o.pol.reply(o, a, err)
		}
		if o.q.pending() == 0 {
			o.q.fail()
			o.putDone(ErrQuorumFailed)
		}
	}
}

func (o *op) deliver(tries int, err error) {
	o.won = true
	o.onGet(GetResult{Latency: o.c.Eng.Now().Sub(o.start), Tries: tries, Err: err})
}

// putDone is the put's terminal; a quorum feeds the primary's span histogram.
func (o *op) putDone(err error) {
	lat := o.c.Eng.Now().Sub(o.start)
	if err == nil {
		o.pc.Quorums++
		o.c.Nodes[o.replicas[0]].ObservePutQuorum(lat)
	} else {
		o.pc.Failed++
	}
	o.onPut(PutResult{Latency: lat, Acks: o.q.acks, Copies: o.q.copies, Err: err})
}

func (o *op) deref() {
	if o.refs--; o.refs > 0 {
		return
	}
	p := o.c.pools
	for _, a := range o.attempts {
		a.release()
		a.op, a.err, a.revocable, a.extra, a.done = nil, nil, false, false, false
		p.attempts.Put(a)
	}
	o.attempts, o.rejects = o.attempts[:0], o.rejects[:0]
	o.onGet, o.onPut, o.pc, o.wasted = nil, nil, nil, nil
	o.probe, o.won, o.sent, o.pending, o.idx = false, false, 0, 0, 0
	p.ops.Put(o)
}

// release hands a's revocation handle back, if it still holds one.
func (a *attempt) release() {
	if a.h != nil {
		a.h.Done()
		a.h = nil
	}
}

// bestLive returns the first live replica of lowest score, else the primary.
func (o *op) bestLive(score func(r int) float64) int {
	best, bestScore := o.replicas[0], math.MaxFloat64
	for _, r := range o.replicas {
		if !o.c.Nodes[r].Down() {
			if sc := score(r); sc < bestScore {
				best, bestScore = r, sc
			}
		}
	}
	return best
}

// livePair filters o.replicas in place to pick two distinct random live
// replicas; else (second < 0) the survivor, or the primary to fail fast.
// With every node up the RNG draws match an unfiltered pick.
func (o *op) livePair(rng *sim.RNG) (first, second int) {
	primary, live := o.replicas[0], o.replicas[:0]
	for _, r := range o.replicas {
		if !o.c.Nodes[r].Down() {
			live = append(live, r)
		}
	}
	o.replicas = live
	switch len(live) {
	case 0:
		return primary, -1
	case 1:
		return live[0], -1
	}
	i := rng.Intn(len(live))
	j := rng.Intn(len(live) - 1)
	if j >= i {
		j++
	}
	return live[i], live[j]
}
