package cluster

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/metrics"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/ssd"
)

// SchedulerKind selects the IO scheduler of a disk stack.
type SchedulerKind int

// Supported schedulers; any other kind builds CFQ. SSDs bypass block-level
// scheduling (§4.3), so the setting is ignored for SSD stacks.
const (
	SchedulerCFQ SchedulerKind = iota
	SchedulerNoop
	// SchedulerDeadline is the Linux deadline scheduler with the
	// MittDeadline admission layer — the queueing-discipline-generality
	// demonstration of §3.4.
	SchedulerDeadline
)

// MittLayer is a device-level MittOS admission layer — MittNoop, MittCFQ,
// MittDeadline or MittSSD: its Target and the controls every one of them
// gets from its gate.
type MittLayer interface {
	core.Target
	Accuracy() core.Accuracy
	SetMiscalibration(bias time.Duration, scale float64)
	SetErrorInjection(fnRate, fpRate float64, rng *sim.RNG)
	SetRecorder(rec *metrics.Recorder)
}

// Stack is one storage stack: device → IO scheduler → (optional) page
// cache, with the matching MittOS layers when enabled.
type Stack struct {
	Disk  *disk.Disk
	SSD   *ssd.SSD
	Sched blockio.Device // the disk's IO scheduler; nil for SSD stacks
	Cache *oscache.Cache

	// Target is the SLO-aware entry point requests go through.
	Target core.Target
	// BlockLayer is the SLO-aware block-layer entry (below the cache);
	// noise tenants and cache background IO enter here.
	BlockLayer *TargetDevice
	// Mitt is the device's admission layer and MittCache the page cache's;
	// each is nil when Mitt is off (MittCache also without a cache).
	Mitt      MittLayer
	MittCache *core.MittCache
}

// NewStack builds the storage stack cfg describes: an SSD when cfg.Device
// is DeviceSSD, otherwise a disk (seeded by rng) under the sched scheduler.
// It reads cfg's device configs, Mitt, MittOptions, CachePages, DiskProfile
// and SSDPool. rec, when non-nil, is threaded through every layer, and
// every IO enters through exactly one span boundary: the block layer (noise
// and cache background traffic) or Target (client IO). The page cache draws
// its pages and background requests from pools.
func NewStack(eng *sim.Engine, cfg NodeConfig, sched SchedulerKind, rng *sim.RNG,
	rec *metrics.Recorder, pools *Pools) Stack {
	var s Stack
	var minIO time.Duration // the smallest device IO latency (§4.4)
	if cfg.Device == DeviceSSD {
		if cfg.SSDPool != nil {
			s.SSD = cfg.SSDPool.Get(eng, cfg.SSDConfig)
		} else {
			s.SSD = ssd.New(eng, cfg.SSDConfig)
		}
		s.SSD.SetRecorder(rec)
		minIO = cfg.SSDConfig.ChipReadTime + cfg.SSDConfig.ChannelXferTime
		if cfg.Mitt {
			s.Mitt = core.NewMittSSD(eng, s.SSD, cfg.MittOptions)
		} else {
			s.Target = &core.Vanilla{Dev: s.SSD}
		}
	} else {
		s.Disk = disk.New(eng, cfg.DiskConfig, rng)
		s.Disk.SetRecorder(rec)
		minIO = cfg.DiskConfig.SeqCost
		switch sched {
		case SchedulerNoop:
			nop := iosched.NewNoop(eng, s.Disk)
			nop.SetRecorder(rec)
			s.Sched = nop
			if cfg.Mitt {
				s.Mitt = core.NewMittNoop(eng, nop, cfg.DiskProfile, cfg.MittOptions)
			}
		case SchedulerDeadline:
			dl := iosched.NewDeadline(eng, iosched.DefaultDeadlineConfig(), s.Disk)
			s.Sched = dl
			if cfg.Mitt {
				s.Mitt = core.NewMittDeadline(eng, dl, cfg.DiskProfile, cfg.MittOptions)
			}
		default:
			cfq := iosched.NewCFQ(eng, iosched.DefaultCFQConfig(), s.Disk)
			cfq.SetRecorder(rec)
			s.Sched = cfq
			if cfg.Mitt {
				s.Mitt = core.NewMittCFQ(eng, cfq, cfg.DiskProfile, cfg.MittOptions)
			}
		}
		if !cfg.Mitt {
			s.Target = &core.Vanilla{Dev: s.Sched}
		}
	}
	if s.Mitt != nil {
		s.Mitt.SetRecorder(rec)
		s.Target = s.Mitt
	}

	device := s.Target
	s.BlockLayer = &TargetDevice{T: traced(rec, device)}
	if cfg.CachePages > 0 {
		ccfg := oscache.DefaultConfig()
		ccfg.CapacityPages = cfg.CachePages
		ccfg.Slab = &pools.Pages
		ccfg.Reqs = &pools.Reqs
		// The cache's background traffic (read-through, write-back,
		// prefetch) enters through the block layer so MittOS accounts it.
		s.Cache = oscache.New(eng, ccfg, s.BlockLayer)
		s.Cache.SetRecorder(rec)
		if cfg.Mitt {
			s.MittCache = core.NewMittCache(eng, s.Cache, device, minIO, cfg.MittOptions)
			s.MittCache.SetRecorder(rec)
			s.Target = s.MittCache
		} else {
			s.Target = &core.Vanilla{Dev: s.Cache}
		}
	}
	s.Target = traced(rec, s.Target)
	return s
}
