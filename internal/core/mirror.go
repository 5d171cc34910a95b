package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/sim"
)

// sstfMirror is the predictor's model of a disk device queue: it tracks
// every outstanding IO and, knowing the device's SSTF policy (Appendix A:
// "we found that our target disk exhibits SSTF policy"), replays the
// service order with profiled per-IO costs. MittNoop mirrors the whole
// dispatch+device queue; MittCFQ mirrors just the device-resident quantum.
//
// Completion residuals feed an EWMA bias corrector — the Tdiff calibration
// of §4.1 — so profile error cannot accumulate.
type sstfMirror struct {
	eng       *sim.Engine
	prof      *disk.Profile
	calibrate bool

	pending   []*mirrorEntry
	inService *mirrorEntry
	svcEnd    sim.Time
	headPos   int64
	driftBias time.Duration

	entries sim.Freelist[mirrorEntry]
	scratch []*mirrorEntry // replay working set, reused across calls
}

// DriftBias exposes the calibration residual. A persistently large value
// means the offline profile no longer matches the device — §8.1's "latency
// profiles must be recollected over time; a sampling runtime method can be
// used to catch a significant deviation".
func (m *sstfMirror) DriftBias() time.Duration { return m.driftBias }

type mirrorEntry struct {
	m   *sstfMirror
	req *blockio.Request
	off int64
	end int64
	sz  int
	at  sim.Time // when the device saw it (for command-aging modeling)

	// Set by dispatched: the completion hook the entry chains, and the
	// pre-bound e.done it installs in its place.
	prev func(*blockio.Request)
	fn   func(*blockio.Request)
}

func newSSTFMirror(eng *sim.Engine, prof *disk.Profile, calibrate bool) *sstfMirror {
	return &sstfMirror{eng: eng, prof: prof, calibrate: calibrate}
}

// svcTime predicts the service time for a jump from `from` to (off, sz),
// bias-corrected.
func (m *sstfMirror) svcTime(from, off int64, sz int) time.Duration {
	svc := m.prof.ServiceTime(off-from, sz)
	if m.calibrate {
		svc += m.driftBias
		if svc < 0 {
			svc = 0
		}
	}
	return svc
}

// add registers a newly submitted IO.
func (m *sstfMirror) add(req *blockio.Request) *mirrorEntry {
	e := m.entries.Get(nil)
	e.m, e.req, e.off, e.end, e.sz, e.at = m, req, req.Offset, req.End(), req.Size, m.eng.Now()
	m.pending = append(m.pending, e)
	if m.inService == nil {
		m.start()
	}
	return e
}

// dispatched registers an IO a scheduler has just sent to the device and
// chains the mirror's completion onto it: the dispatch-side hook MittCFQ
// and MittDeadline share. (MittNoop mirrors its whole queue from admission
// and retires IOs from its settle hook instead.)
func (m *sstfMirror) dispatched(req *blockio.Request) {
	e := m.add(req)
	if e.fn == nil {
		e.fn = e.done
	}
	e.prev = req.OnComplete
	req.OnComplete = e.fn
}

func (e *mirrorEntry) done(r *blockio.Request) {
	m, prev := e.m, e.prev
	e.prev = nil
	m.complete(r) // recycles e
	if prev != nil {
		prev(r)
	}
}

// complete removes a finished IO, calibrates, and advances the mirror.
func (m *sstfMirror) complete(req *blockio.Request) {
	if m.calibrate && m.inService != nil && m.inService.req == req {
		err := m.eng.Now().Sub(m.svcEnd)
		err = clampDur(err, -2*time.Millisecond, 2*time.Millisecond)
		m.driftBias += (err - m.driftBias) / 8
	}
	m.forget(req)
	m.headPos = req.End()
	m.start()
}

// drop removes an IO revoked before it reached the device. The head does
// not move and nothing is calibrated; if the mirror had the IO in
// predicted service, the next pending IO starts now.
func (m *sstfMirror) drop(req *blockio.Request) {
	if m.forget(req) {
		m.start()
	}
}

// forget splices req's entry out of pending and recycles it, reporting
// whether it was the entry in predicted service.
func (m *sstfMirror) forget(req *blockio.Request) (inService bool) {
	for i, p := range m.pending {
		if p.req == req {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			p.req = nil
			m.entries.Put(p)
			return p == m.inService
		}
	}
	return false
}

// start begins predicted service of the next pending IO under the device's
// policy: command-aged FIFO first, SSTF otherwise.
func (m *sstfMirror) start() {
	m.inService = nil
	best := m.pick(m.pending, m.headPos, m.eng.Now(), nil)
	if best == nil {
		return
	}
	m.inService = best
	m.svcEnd = m.eng.Now().Add(m.svcTime(m.headPos, best.off, best.sz))
}

// pick applies the device policy to choose the next IO among entries. skip
// excludes one entry (the in-service one when scanning pending directly).
//
// Entries arrive in virtual-time order (add appends, complete splices), so
// `at` is non-decreasing along the slice and the command-aging candidate is
// simply the first valid entry — O(1) instead of a minimum scan, with the
// same first-win tie-break. Only the non-aged path pays the SSTF distance
// pass.
func (m *sstfMirror) pick(entries []*mirrorEntry, pos int64, t sim.Time, skip *mirrorEntry) *mirrorEntry {
	var oldest *mirrorEntry
	oi := 0
	for i, p := range entries {
		if p == skip || p.req.Canceled() {
			continue
		}
		oldest, oi = p, i
		break
	}
	if oldest == nil {
		return nil
	}
	if m.prof.AgeLimit > 0 && t.Sub(oldest.at) > m.prof.AgeLimit {
		return oldest
	}
	var best *mirrorEntry
	bestDist := int64(1) << 62
	for _, p := range entries[oi:] {
		if p == skip || p.req.Canceled() {
			continue
		}
		if d := absDist(p.off, pos); d < bestDist {
			best, bestDist = p, d
		}
	}
	return best
}

// drainTime returns the predicted time until the mirrored queue empties.
func (m *sstfMirror) drainTime() time.Duration {
	return m.replay(0, 0, true)
}

// waitFor returns the predicted delay until a candidate IO at (off, sz)
// would start service if submitted now — it competes for SSTF slots like
// any queued IO.
func (m *sstfMirror) waitFor(off int64, sz int) time.Duration {
	return m.replay(off, sz, false)
}

func (m *sstfMirror) replay(off int64, sz int, drain bool) time.Duration {
	now := m.eng.Now()
	t := now
	pos := m.headPos
	if m.inService != nil {
		t = m.svcEnd
		if t < now {
			t = now
		}
		pos = m.inService.end
	}
	rest := m.scratch[:0]
	for _, p := range m.pending {
		if p != m.inService && !p.req.Canceled() {
			rest = append(rest, p)
		}
	}
	m.scratch = rest[:0] // keep the grown backing array for the next replay
	ageLimit := m.prof.AgeLimit
	for len(rest) > 0 {
		p := m.pick(rest, pos, t, nil)
		aged := ageLimit > 0 && t.Sub(p.at) > ageLimit
		if !drain && !aged && absDist(off, pos) < absDist(p.off, pos) {
			// No starving entry outranks the candidate, and the
			// candidate is SSTF-closest: it wins the next slot.
			return t.Sub(now)
		}
		t = t.Add(m.svcTime(pos, p.off, p.sz))
		pos = p.end
		for i, q := range rest {
			if q == p {
				if i == 0 {
					// Aged FIFO consumption pops the front; avoid the
					// memmove.
					rest = rest[1:]
				} else {
					rest = append(rest[:i], rest[i+1:]...)
				}
				break
			}
		}
	}
	return t.Sub(now)
}

func absDist(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}
