package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzipped profile.proto that runtime/pprof
// writes, and the rule that buckets CPU samples by layer: a sample belongs
// to the innermost frame of this module — a mittos/internal/<pkg> package,
// or the benchmark itself — so runtime.memmove under disk.(*Disk).next
// counts to disk. Samples with no such frame go to runtime.gc when a GC
// worker is on the stack and to runtime.other otherwise.

// layerProfile accumulates CPU time per layer over any number of profiles.
type layerProfile struct {
	ns    map[string]int64
	total int64
}

func newLayerProfile() *layerProfile { return &layerProfile{ns: make(map[string]int64)} }

// addProfile decodes one gzipped profile and adds its samples.
func (lp *layerProfile) addProfile(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		frames := make([]string, 0, 16)
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		v := s.value
		lp.ns[attribute(frames)] += v
		lp.total += v
	}
	return nil
}

// pct returns each layer's share of the profiled CPU time, in percent.
func (lp *layerProfile) pct() map[string]float64 {
	out := make(map[string]float64, len(lp.ns))
	if lp.total == 0 {
		return out
	}
	for k, v := range lp.ns { //mapiter:sorted
		out[k] = 100 * float64(v) / float64(lp.total)
	}
	return out
}

// layerOf maps a function name to its layer, or "" outside this module.
// The benchmark's package is "main" in its binary and mittos/bench/… in
// its test binary.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "mittos/bench/") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "mittos/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// gcFrames mark a garbage-collector goroutine's stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot"}

// attribute picks the layer for one sample's frames, innermost first.
func attribute(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// profile is the decoded subset of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // location ids, leaf first
	value int64    // the last sample value: CPU nanoseconds in a CPU profile
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{} // function id → string index
		locLines = map[uint64][]uint64{}
		p        = &profile{locFuncs: map[uint64][]string{}}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfileSample:
			var s sample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wire, v, b)
				case fSampleValue:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines { //mapiter:sorted
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			si := funcName[f]
			if si < 0 || si >= int64(len(strs)) {
				return nil, fmt.Errorf("function %d: string index %d out of range", f, si)
			}
			names = append(names, strs[si])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, plus its value (varint and fixed types) or its bytes
// (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire type
// 2) or one per field (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
