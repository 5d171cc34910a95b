package kv

import (
	"slices"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// refIndex is the reference model for the run index: the per-run
// map[int64]int32 from key to slot the store once kept, newest run first,
// with the same flush and compaction rules, plus each key's memtable
// membership and version.
type refIndex struct {
	memtableCap, maxRuns int
	mem                  map[int64]bool
	runs                 []map[int64]int32
	versions             map[int64]uint64
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func slotsOf(keys []int64) map[int64]int32 {
	r := make(map[int64]int32, len(keys))
	for slot, k := range keys {
		r[k] = int32(slot)
	}
	return r
}

func (m *refIndex) preload(n int64) {
	if n <= 0 {
		return
	}
	r := make(map[int64]int32, n)
	for k := int64(0); k < n; k++ {
		r[k] = int32(k)
	}
	m.runs = append([]map[int64]int32{r}, m.runs...)
}

func (m *refIndex) put(key int64) {
	m.mem[key] = true
	m.versions[key]++
	if len(m.mem) < m.memtableCap {
		return
	}
	m.runs = append([]map[int64]int32{slotsOf(sortedKeys(m.mem))}, m.runs...)
	m.mem = make(map[int64]bool)
	if len(m.runs) > m.maxRuns {
		merged := make(map[int64]bool)
		for _, r := range m.runs {
			for k := range r {
				merged[k] = true
			}
		}
		m.runs = []map[int64]int32{slotsOf(sortedKeys(merged))}
	}
}

func (m *refIndex) applyReplicated(key int64, version uint64) {
	if version > m.versions[key] {
		m.versions[key] = version
	}
}

// check compares every key in [lo, hi] against the model. The model owns
// which run serves a key and at which slot; the run's extent (base and
// stride) is read from the store, whose allocator is not under test.
func (m *refIndex) check(t *testing.T, s *Store, lo, hi int64) {
	t.Helper()
	if len(s.runs) != len(m.runs) {
		t.Fatalf("store has %d runs, model %d", len(s.runs), len(m.runs))
	}
	for j, r := range m.runs {
		if s.runs[j].n != int64(len(r)) {
			t.Fatalf("run %d holds %d keys, model %d", j, s.runs[j].n, len(r))
		}
	}
	for k := lo; k <= hi; k++ {
		var want int64
		found := false
		for j, r := range m.runs {
			if slot, ok := r[k]; ok {
				want = s.runs[j].base + int64(slot)*max(s.runs[j].stride, int64(s.cfg.BlockSize))
				found = true
				break
			}
		}
		got, ok := s.KeyOffset(k)
		if ok != found || got != want {
			t.Fatalf("KeyOffset(%d) = %d, %v; model %d, %v", k, got, ok, want, found)
		}
		if v := s.Version(k); v != m.versions[k] {
			t.Fatalf("Version(%d) = %d, model %d", k, v, m.versions[k])
		}
		if in := s.keys[k]&inMemtable != 0; in != m.mem[k] {
			t.Fatalf("key %d in memtable = %v, model %v", k, in, m.mem[k])
		}
	}
}

// Program bytes for FuzzRunIndex: the top two bits pick the op, the low six
// its argument.
const (
	opPut        = 0 << 6 // Put(arg-2), then run the engine
	opDurable    = 1 << 6 // PutDurable(arg-2), queued until the engine next runs
	opPreload    = 2 << 6 // Preload(arg), then run the engine
	opReplicated = 3 << 6 // ApplyReplicated(arg-2, next byte), then run the engine
)

// FuzzRunIndex drives a small store (4-key memtable, at most 3 runs) through
// preloads, vanilla and durable puts, and replicated versions, and after
// every step compares every key's device offset, version, and memtable
// membership with refIndex.
func FuzzRunIndex(f *testing.F) {
	p := func(k int64) byte { return byte(k + 2) }
	for _, seed := range [][]byte{
		// Preload(8), then three flushes of keys inside [0, 8): the
		// compaction's merged keys are exactly [0, 8).
		{opPreload | 8, p(0), p(1), p(2), p(3), p(4), p(5), p(6), p(7), p(0), p(1), p(2), p(3)},
		// Preload(4), then keys past it with gaps: the merged run stores keys.
		{opPreload | 4, p(10), p(11), p(12), p(13), p(20), p(21), p(22), p(23), p(30), p(31), p(32), p(33)},
		// Preload(4), then keys [4, 16) contiguous above it: merged is [0, 16).
		{opPreload | 4, p(4), p(5), p(6), p(7), p(8), p(9), p(10), p(11), p(12), p(13), p(14), p(15)},
		// Negative keys in a flush, then a compaction over a dense range.
		{p(-2), p(-1), p(0), p(1), opPreload | 6, p(2), p(3), p(4), p(5), p(6), p(7), p(8), p(9)},
		// No preload: flushes of exactly [0, 4), overwrites, then a
		// compaction whose merged keys are exactly [0, 9).
		{p(0), p(1), p(2), p(3), p(3), p(2), p(1), p(0), p(5), p(6), p(7), p(8), p(1), p(2), p(3), p(4)},
		// Preload(0) and Preload(1).
		{opPreload | 0, p(0), opPreload | 1, p(1), p(0), p(2), p(3)},
		// Group-committed durable puts batched behind one WAL append,
		// interleaved with vanilla puts and replicated versions.
		{opPreload | 3, opDurable | p(1), opDurable | p(2), opDurable | p(9), p(4),
			opReplicated | p(2), 9, opReplicated | p(40), 3, opDurable | p(-1), opDurable | p(40),
			opDurable | p(41), opDurable | p(0), p(5), opReplicated | p(40), 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		eng := sim.NewEngine()
		cfg := DefaultConfig(0, 100<<30)
		cfg.MemtableCap, cfg.MaxRuns = 4, 3
		var ids blockio.IDGen
		s := New(eng, cfg, &scriptTarget{eng: eng, svc: time.Millisecond}, &ids)
		m := &refIndex{memtableCap: 4, maxRuns: 3, mem: map[int64]bool{}, versions: map[int64]uint64{}}
		var queued []int64 // durable puts not yet applied, in WAL order
		hi := int64(0)
		for i := 0; i < len(prog); i++ {
			op, arg := prog[i]&^63, int64(prog[i]&63)
			key := arg - 2
			switch op {
			case opPut:
				s.Put(key, func(error) {})
				m.put(key)
			case opDurable:
				s.PutDurable(key, 0, func(error) {})
				queued = append(queued, key)
			case opPreload:
				s.Preload(arg)
				m.preload(arg)
				key = arg - 1
			case opReplicated:
				var v uint64
				if i+1 < len(prog) {
					i++
					v = uint64(prog[i])
				}
				s.ApplyReplicated(key, v)
				m.applyReplicated(key, v)
			}
			if op != opDurable || i == len(prog)-1 {
				eng.Run()
				for _, k := range queued {
					m.put(k)
				}
				queued = queued[:0]
			}
			hi = max(hi, key)
			m.check(t, s, -4, hi+2)
		}
	})
}
