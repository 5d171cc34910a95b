// Package ycsb generates YCSB-style key-value workloads (Cooper et al.,
// SoCC'10): 1KB records, uniform/zipfian/latest request distributions, and
// configurable read/write mixes. The paper uses YCSB to generate "1KB
// key-value get() operations" throughout §7.
package ycsb

import (
	"fmt"

	"mittos/internal/sim"
)

// Distribution selects the request key distribution.
type Distribution int

// Supported request distributions.
const (
	Uniform Distribution = iota
	Zipfian
	Latest
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case Latest:
		return "latest"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// OpKind is a workload operation type.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpInsert
	// OpUpdate overwrites an existing key drawn from the request
	// distribution — the write half of YCSB A/B/F style mixes.
	OpUpdate
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  int64
}

// Config shapes a workload.
type Config struct {
	// Records is the loaded key-space size.
	Records int64
	// ValueSize is the record payload (1KB in the paper's runs).
	ValueSize int
	// ReadFraction of operations are reads (1.0 = read-only, like the
	// §7 get() workloads; 0.0 = the §7.8.6 write-only workload).
	ReadFraction float64
	// Dist is the request distribution. YCSB's default zipfian constant
	// (0.99) is used for Zipfian.
	Dist Distribution
	// ZipfTheta overrides the zipfian skew when > 0.
	ZipfTheta float64
	// InsertFraction is the fraction of write operations that insert fresh
	// keys; the rest are updates of existing keys drawn from the request
	// distribution. 1.0 (the DefaultConfig value) makes every write an
	// insert — the legacy behavior; 0.0 is the pure update mix of YCSB
	// workloads A/B/F.
	InsertFraction float64
}

// DefaultConfig is the paper's workload: 1KB reads over a large key space.
func DefaultConfig(records int64) Config {
	return Config{Records: records, ValueSize: 1024, ReadFraction: 1.0,
		Dist: Uniform, InsertFraction: 1.0}
}

// Workload produces operations deterministically from its RNG stream.
type Workload struct {
	cfg      Config
	rng      *sim.RNG
	zipf     *sim.Zipf
	inserted int64
}

// New builds a workload.
func New(cfg Config, rng *sim.RNG) *Workload {
	if cfg.Records <= 0 {
		panic("ycsb: Records must be positive")
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 1024
	}
	w := &Workload{cfg: cfg, rng: rng, inserted: cfg.Records}
	if cfg.Dist == Zipfian || cfg.Dist == Latest {
		theta := cfg.ZipfTheta
		if !(theta > 0 && theta < 1) { // NaN included
			theta = 0.99
		}
		w.zipf = sim.NewZipf(rng, cfg.Records, theta)
	}
	return w
}

// Config returns the workload configuration.
func (w *Workload) Config() Config { return w.cfg }

// Next produces the next operation. The InsertFraction >= 1 short circuit
// keeps all-insert workloads (the DefaultConfig shape) drawing exactly one
// coin per write, so pre-existing RNG streams replay bit-identically.
func (w *Workload) Next() Op {
	if w.rng.Bool(w.cfg.ReadFraction) {
		return Op{Kind: OpRead, Key: w.nextKey()}
	}
	if w.cfg.InsertFraction >= 1 || w.rng.Bool(w.cfg.InsertFraction) {
		w.inserted++
		return Op{Kind: OpInsert, Key: w.inserted - 1}
	}
	return Op{Kind: OpUpdate, Key: w.nextKey()}
}

// NextKey produces a key per the request distribution.
func (w *Workload) NextKey() int64 { return w.nextKey() }

func (w *Workload) nextKey() int64 {
	switch w.cfg.Dist {
	case Zipfian:
		return w.zipf.Next()
	case Latest:
		// Hot keys are the most recently inserted ones.
		r := w.zipf.Next()
		k := w.inserted - 1 - r
		if k < 0 {
			k = 0
		}
		return k
	default:
		return w.rng.Int63n(w.cfg.Records)
	}
}
