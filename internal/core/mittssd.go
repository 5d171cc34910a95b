package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
	"mittos/internal/ssd"
)

// MittSSD is MittOS integrated with host-managed flash (§4.3).
//
// Unlike disks, an SSD has no single queue: every chip queues
// independently and chips behind one channel share its bus. MittSSD keeps
// the next-available time of every chip (O(1) per-IO prediction, §4.3:
// "the overhead is only 300ns") plus the count of outstanding IOs per
// channel; the predicted wait of a page IO is
//
//	max(0, TchipNextFree − now) + 60µs × #outstanding-on-same-channel.
//
// A multi-page request is striped across chips; if ANY sub-page would
// violate the deadline, the whole request gets EBUSY and nothing is
// submitted.
//
// Because the host owns the FTL on OpenChannel SSDs, MittSSD also knows
// program times (upper vs lower pages, via the profiled 512-entry pattern)
// and garbage-collection episodes (via the GC hook), which it folds into
// the per-chip next-free times.
type MittSSD struct {
	waitGate
	dev *ssd.SSD

	chipNextFree []sim.Time
	chanOut      []int // outstanding page IOs per channel

	pageRead  time.Duration // profiled unloaded page read (100µs)
	chanDelay time.Duration // profiled per-outstanding-IO channel delay (60µs)

	// pattern is the profiled 512-entry per-page program-time array
	// ("the profiled data can be stored in an 512-item array", §4.3);
	// writeIdx tracks each chip's predicted write frontier through it, so
	// back-to-back writes get distinct lower/upper predictions.
	pattern  []time.Duration
	writeIdx []int

	decs sim.Freelist[chanDec]
	// chanPages is admission scratch: pages of the current request per
	// channel. Invariant: all-zero between submissions — each accepted
	// submission re-zeroes exactly the channels it touched.
	chanPages []int
}

// chanDec is one pooled channel-occupancy decrement, scheduled at a page's
// predicted transfer completion.
type chanDec struct {
	m  *MittSSD
	ch int
	fn func() // pre-bound d.fire
}

func newChanDec() *chanDec { d := &chanDec{}; d.fn = d.fire; return d }

func (d *chanDec) fire() {
	m, ch := d.m, d.ch
	m.decs.Put(d)
	if m.chanOut[ch] > 0 {
		m.chanOut[ch]--
	}
}

// NewMittSSD builds the layer over a host-managed SSD. The read/channel
// costs come from the vendor NAND spec or profiling (§4.3); we take them
// from the device config the same way the paper takes them from the
// OpenChannel spec sheet.
func NewMittSSD(eng *sim.Engine, dev *ssd.SSD, opt Options) *MittSSD {
	cfg := dev.Config()
	m := &MittSSD{
		waitGate:     waitGate{gate: newGate(eng, metrics.RMittSSD, opt)},
		dev:          dev,
		chipNextFree: make([]sim.Time, cfg.TotalChips()),
		chanOut:      make([]int, cfg.Channels),
		pageRead:     cfg.ChipReadTime + cfg.ChannelXferTime,
		chanDelay:    cfg.ChannelXferTime,
		pattern:      cfg.ProgramPattern(),
		writeIdx:     make([]int, cfg.TotalChips()),
		chanPages:    make([]int, cfg.Channels),
	}
	dev.SetGCHook(func(ev ssd.GCEvent) {
		// Host-initiated GC: the chip is busy for the whole episode, and
		// the page moves advance the write frontier.
		now := m.eng.Now()
		if m.chipNextFree[ev.Chip] < now {
			m.chipNextFree[ev.Chip] = now
		}
		m.chipNextFree[ev.Chip] = m.chipNextFree[ev.Chip].Add(ev.BusyFor)
		m.writeIdx[ev.Chip] += ev.MovedPages
	})
	return m
}

// PredictWait returns the worst sub-page wait for a request at [off, size).
func (m *MittSSD) PredictWait(off int64, size int) time.Duration {
	now := m.eng.Now()
	first, count := m.dev.PageSpan(off, size)
	worst := time.Duration(0)
	ps := int64(m.dev.Config().PageSize)
	for p := first; p < first+count; p++ {
		chipID, chanID := m.dev.ChipForOffset(p * ps)
		w := time.Duration(0)
		if m.chipNextFree[chipID] > now {
			w = m.chipNextFree[chipID].Sub(now)
		}
		w += time.Duration(m.chanOut[chanID]) * m.chanDelay
		if w > worst {
			worst = w
		}
	}
	return worst
}

// SubmitSLO implements Target.
func (m *MittSSD) SubmitSLO(req *blockio.Request, onDone func(error)) {
	// Per-request predicted service: pages run in parallel across chips,
	// but pages sharing a channel serialize their transfers.
	_, nPages := m.dev.PageSpan(req.Offset, req.Size)
	perChan := (int(nPages) + m.dev.Config().Channels - 1) / m.dev.Config().Channels
	svc := m.pageRead + time.Duration(perChan-1)*m.chanDelay
	if req.Op == blockio.Write {
		svc = m.chanDelay + m.dev.Config().LowerPageProgram +
			time.Duration(perChan-1)*m.chanDelay
	}
	// "If any sub-IO violates the deadline, EBUSY is returned for the
	// entire request; all sub-pages are not submitted." (§4.3)
	if m.admit(req, m.PredictWait(req.Offset, req.Size), svc, onDone) == nil {
		return
	}

	now := m.eng.Now()
	// Advance per-chip next-free times and channel occupancy. Channel
	// occupancy reflects pending *transfers*: each page holds its channel
	// for ~one transfer slot, so the decrement is scheduled at the page's
	// predicted transfer completion, not the request's (holding the count
	// for a striped request's whole lifetime would overestimate waits for
	// everyone else — false positives).
	first, count := m.dev.PageSpan(req.Offset, req.Size)
	ps := int64(m.dev.Config().PageSize)
	for p := first; p < first+count; p++ {
		chipID, chanID := m.dev.ChipForOffset(p * ps)
		if m.chipNextFree[chipID] < now {
			m.chipNextFree[chipID] = now
		}
		var cost, xferAt time.Duration
		if req.Op == blockio.Read {
			// TchipNextFree += 100µs per new page read (§4.3).
			cost = m.pageRead
			xferAt = m.pageRead + time.Duration(m.chanPages[chanID])*m.chanDelay
		} else {
			cost = m.pattern[m.writeIdx[chipID]%len(m.pattern)]
			m.writeIdx[chipID]++
			// A write's transfer happens up front; the chip then programs
			// for 1–2ms with the channel already free.
			xferAt = time.Duration(m.chanPages[chanID]+1) * m.chanDelay
		}
		m.chanPages[chanID]++
		m.chipNextFree[chipID] = m.chipNextFree[chipID].Add(cost)
		m.chanOut[chanID]++
		d := m.decs.Get(newChanDec)
		d.m, d.ch = m, chanID
		m.eng.After(xferAt, d.fn)
	}
	// Restore the scratch's all-zero invariant, touching only the channels
	// this request used instead of sweeping the whole array per submit.
	if count >= int64(len(m.chanPages)) {
		for i := range m.chanPages {
			m.chanPages[i] = 0
		}
	} else {
		for p := first; p < first+count; p++ {
			_, chanID := m.dev.ChipForOffset(p * ps)
			m.chanPages[chanID] = 0
		}
	}

	m.dev.Submit(req)
}
