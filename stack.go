package mittos

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
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
type SchedulerKind = cluster.SchedulerKind

// Supported schedulers; any other kind builds CFQ. SSDs bypass block-level
// scheduling (§4.3), so the setting is ignored for SSD stacks.
const (
	SchedulerCFQ  = cluster.SchedulerCFQ
	SchedulerNoop = cluster.SchedulerNoop
	// SchedulerDeadline is the Linux deadline scheduler with the
	// MittDeadline admission layer — the queueing-discipline-generality
	// demonstration of §3.4.
	SchedulerDeadline = cluster.SchedulerDeadline
)

// StackConfig shapes a single-node SLO-aware storage stack.
type StackConfig struct {
	// Device picks the medium (DeviceDisk or DeviceSSD).
	Device DeviceKind
	// Scheduler picks the disk stack's IO scheduler: CFQ, noop or deadline.
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
	Disk  *disk.Disk
	SSD   *ssd.SSD
	Cache *oscache.Cache

	st  cluster.Stack
	ids blockio.IDGen
}

// NewStack assembles the stack on the engine: it fills in the zero-value
// defaults and, for a Mitt disk stack, the offline disk profile, then builds
// the layers with the same builder as every cluster node.
func NewStack(eng *Engine, cfg StackConfig) *Stack {
	ncfg := cluster.NodeConfig{Device: cfg.Device, DiskConfig: cfg.DiskConfig,
		SSDConfig: cfg.SSDConfig, Mitt: cfg.Mitt, MittOptions: cfg.MittOptions,
		CachePages: cfg.CachePages}
	if ncfg.MittOptions == (Options{}) {
		ncfg.MittOptions = DefaultOptions()
	}
	if cfg.Device == DeviceSSD {
		if ncfg.SSDConfig.Channels == 0 {
			ncfg.SSDConfig = ssd.DefaultConfig()
		}
	} else {
		if ncfg.DiskConfig.CapacityBytes == 0 {
			ncfg.DiskConfig = disk.DefaultConfig()
		}
		if cfg.Mitt {
			ncfg.DiskProfile = disk.ProfileTwin(ncfg.DiskConfig, 42, disk.DefaultProfilerOptions())
		}
	}
	st := cluster.NewStack(eng, ncfg, cfg.Scheduler, sim.NewRNG(cfg.Seed, "stack-device"),
		nil, &cluster.Pools{})
	return &Stack{Disk: st.Disk, SSD: st.SSD, Cache: st.Cache, st: st}
}

// Target returns the stack's SLO-aware entry point for raw Request
// submission.
func (s *Stack) Target() Target { return s.st.Target }

// Read issues a read of size bytes at off with the given deadline SLO
// (0 = no SLO). onDone receives nil on completion or ErrBusy on rejection —
// the read(..., slo) system call of §3.2.
func (s *Stack) Read(off int64, size int, deadline time.Duration, onDone func(error)) *Request {
	req := &blockio.Request{
		ID: s.ids.Next(), Op: blockio.Read, Offset: off, Size: size,
		Proc: 1, Deadline: deadline,
	}
	s.st.Target.SubmitSLO(req, onDone)
	return req
}

// Write issues a write (no deadline semantics; §7.8.6).
func (s *Stack) Write(off int64, size int, onDone func(error)) *Request {
	req := &blockio.Request{
		ID: s.ids.Next(), Op: blockio.Write, Offset: off, Size: size, Proc: 1,
	}
	s.st.Target.SubmitSLO(req, onDone)
	return req
}

// AddrCheck models the addrcheck(&addr, size, deadline) system call of
// §4.4: a page-table walk before touching an mmap-ed range. It returns nil
// when the application may proceed and ErrBusy when the range was swapped
// out under memory contention. Requires a cache-enabled, Mitt-enabled
// stack.
func (s *Stack) AddrCheck(off int64, size int, deadline time.Duration) error {
	if s.st.MittCache == nil {
		return fmt.Errorf("mittos: AddrCheck requires a Mitt-enabled stack with a page cache")
	}
	return s.st.MittCache.AddrCheck(off, size, deadline)
}

// PredictWait exposes the admission layer's current wait estimate for an IO
// at (off, size) — the signal behind every EBUSY decision.
func (s *Stack) PredictWait(off int64, size int) time.Duration {
	switch m := s.st.Mitt.(type) {
	case *core.MittNoop:
		return m.PredictWaitFor(off, size)
	case *core.MittCFQ:
		return m.PredictWait(1, blockio.ClassBestEffort)
	case *core.MittSSD:
		return m.PredictWait(off, size)
	case *core.MittDeadline:
		return m.PredictWait()
	default:
		return 0
	}
}

// Accuracy returns shadow-mode counters from whichever Mitt layer is
// active (zero value when Mitt is disabled).
func (s *Stack) Accuracy() Accuracy {
	if s.st.Mitt == nil {
		return Accuracy{}
	}
	return s.st.Mitt.Accuracy()
}
