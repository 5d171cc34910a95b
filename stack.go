package mittos

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/ssd"
)

// DiskConfig / SSDConfig aliases let callers tune device models without
// importing internal packages.
type (
	DiskConfig = disk.Config
	SSDConfig  = ssd.Config
)

// DefaultDiskConfig and DefaultSSDConfig return the paper-calibrated
// device models (1TB disk with 6–10ms random 4KB reads; 16-channel
// OpenChannel SSD with 100µs page reads).
func DefaultDiskConfig() DiskConfig { return disk.DefaultConfig() }

// DefaultSSDConfig returns the OpenChannel SSD model of §4.3.
func DefaultSSDConfig() SSDConfig { return ssd.DefaultConfig() }

// SchedulerKind selects the IO scheduler for disk stacks.
type SchedulerKind int

// Supported schedulers. SSDs bypass block-level scheduling (§4.3), so the
// setting is ignored for SSD stacks.
const (
	SchedulerCFQ SchedulerKind = iota
	SchedulerNoop
	// SchedulerDeadline is the Linux deadline scheduler with the
	// MittDeadline admission layer — the queueing-discipline-generality
	// demonstration of §3.4.
	SchedulerDeadline
)

// StackConfig shapes a single-node SLO-aware storage stack.
type StackConfig struct {
	// Device picks the medium (DeviceDisk or DeviceSSD).
	Device DeviceKind
	// Scheduler picks noop vs CFQ for disk stacks.
	Scheduler SchedulerKind
	// Mitt enables the MittOS admission layer; false builds the vanilla
	// stack (deadlines ignored).
	Mitt bool
	// MittOptions tune the admission layer; zero value → DefaultOptions.
	MittOptions Options
	// CachePages > 0 inserts an OS page cache of that size (in 4KB
	// pages), fronted by MittCache when Mitt is set.
	CachePages int
	// DiskConfig / SSDConfig override the device model; zero values use
	// the paper-calibrated defaults.
	DiskConfig disk.Config
	SSDConfig  ssd.Config
	// Seed drives the device model's randomness.
	Seed int64
}

// Stack is a single node's storage stack: device → scheduler → (optional)
// page cache, with the matching MittOS layer when enabled. It is the
// programmatic equivalent of opening a file on a MittOS kernel.
type Stack struct {
	eng *Engine

	Disk  *disk.Disk
	SSD   *ssd.SSD
	Cache *oscache.Cache

	target core.Target

	mittNoop     *core.MittNoop
	mittCFQ      *core.MittCFQ
	mittSSD      *core.MittSSD
	mittCache    *core.MittCache
	mittDeadline *core.MittDeadline

	ids blockio.IDGen
}

// NewStack assembles the stack on the engine.
func NewStack(eng *Engine, cfg StackConfig) *Stack {
	s := &Stack{eng: eng}
	opt := cfg.MittOptions
	if opt == (Options{}) {
		opt = DefaultOptions()
	}
	rng := sim.NewRNG(cfg.Seed, "stack-device")

	var ioTarget core.Target
	var minIO time.Duration
	switch cfg.Device {
	case DeviceSSD:
		scfg := cfg.SSDConfig
		if scfg.Channels == 0 {
			scfg = ssd.DefaultConfig()
		}
		s.SSD = ssd.New(eng, scfg)
		minIO = scfg.ChipReadTime + scfg.ChannelXferTime
		if cfg.Mitt {
			s.mittSSD = core.NewMittSSD(eng, s.SSD, opt)
			ioTarget = s.mittSSD
		} else {
			ioTarget = &core.Vanilla{Dev: s.SSD}
		}
	default:
		dcfg := cfg.DiskConfig
		if dcfg.CapacityBytes == 0 {
			dcfg = disk.DefaultConfig()
		}
		s.Disk = disk.New(eng, dcfg, rng)
		minIO = dcfg.SeqCost
		prof := disk.ProfileTwin(dcfg, 42, disk.DefaultProfilerOptions())
		if cfg.Scheduler == SchedulerNoop {
			nop := iosched.NewNoop(eng, s.Disk)
			if cfg.Mitt {
				s.mittNoop = core.NewMittNoop(eng, nop, prof, opt)
				ioTarget = s.mittNoop
			} else {
				ioTarget = &core.Vanilla{Dev: nop}
			}
		} else if cfg.Scheduler == SchedulerDeadline {
			dl := iosched.NewDeadline(eng, iosched.DefaultDeadlineConfig(), s.Disk)
			if cfg.Mitt {
				s.mittDeadline = core.NewMittDeadline(eng, dl, prof, opt)
				ioTarget = s.mittDeadline
			} else {
				ioTarget = &core.Vanilla{Dev: dl}
			}
		} else {
			cfq := iosched.NewCFQ(eng, iosched.DefaultCFQConfig(), s.Disk)
			if cfg.Mitt {
				s.mittCFQ = core.NewMittCFQ(eng, cfq, prof, opt)
				ioTarget = s.mittCFQ
			} else {
				ioTarget = &core.Vanilla{Dev: cfq}
			}
		}
	}
	s.target = ioTarget
	if cfg.CachePages > 0 {
		ccfg := oscache.DefaultConfig()
		ccfg.CapacityPages = cfg.CachePages
		s.Cache = oscache.New(eng, ccfg, &cluster.TargetDevice{T: ioTarget})
		if cfg.Mitt {
			s.mittCache = core.NewMittCache(eng, s.Cache, ioTarget, minIO, opt)
			s.target = s.mittCache
		} else {
			s.target = &core.Vanilla{Dev: s.Cache}
		}
	}
	return s
}

// Target returns the stack's SLO-aware entry point for raw Request
// submission.
func (s *Stack) Target() Target { return s.target }

// Read issues a read of size bytes at off with the given deadline SLO
// (0 = no SLO). onDone receives nil on completion or ErrBusy on rejection —
// the read(..., slo) system call of §3.2.
func (s *Stack) Read(off int64, size int, deadline time.Duration, onDone func(error)) *Request {
	req := &blockio.Request{
		ID: s.ids.Next(), Op: blockio.Read, Offset: off, Size: size,
		Proc: 1, Deadline: deadline,
	}
	s.target.SubmitSLO(req, onDone)
	return req
}

// Write issues a write (no deadline semantics; §7.8.6).
func (s *Stack) Write(off int64, size int, onDone func(error)) *Request {
	req := &blockio.Request{
		ID: s.ids.Next(), Op: blockio.Write, Offset: off, Size: size, Proc: 1,
	}
	s.target.SubmitSLO(req, onDone)
	return req
}

// AddrCheck models the addrcheck(&addr, size, deadline) system call of
// §4.4: a page-table walk before touching an mmap-ed range. It returns nil
// when the application may proceed and ErrBusy when the range was swapped
// out under memory contention. Requires a cache-enabled, Mitt-enabled
// stack.
func (s *Stack) AddrCheck(off int64, size int, deadline time.Duration) error {
	if s.mittCache == nil {
		return fmt.Errorf("mittos: AddrCheck requires a Mitt-enabled stack with a page cache")
	}
	return s.mittCache.AddrCheck(off, size, deadline)
}

// PredictWait exposes the admission layer's current wait estimate for an IO
// at (off, size) — the signal behind every EBUSY decision.
func (s *Stack) PredictWait(off int64, size int) time.Duration {
	switch {
	case s.mittNoop != nil:
		return s.mittNoop.PredictWaitFor(off, size)
	case s.mittCFQ != nil:
		return s.mittCFQ.PredictWait(1, blockio.ClassBestEffort)
	case s.mittSSD != nil:
		return s.mittSSD.PredictWait(off, size)
	case s.mittDeadline != nil:
		return s.mittDeadline.PredictWait()
	default:
		return 0
	}
}

// Accuracy returns shadow-mode counters from whichever Mitt layer is
// active (zero value when Mitt is disabled).
func (s *Stack) Accuracy() Accuracy {
	switch {
	case s.mittNoop != nil:
		return s.mittNoop.Accuracy()
	case s.mittCFQ != nil:
		return s.mittCFQ.Accuracy()
	case s.mittSSD != nil:
		return s.mittSSD.Accuracy()
	case s.mittDeadline != nil:
		return s.mittDeadline.Accuracy()
	default:
		return Accuracy{}
	}
}
