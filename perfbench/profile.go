package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped protocol-buffer profiles that
// runtime/pprof writes: just enough of the profile.proto schema to
// attribute CPU samples to functions.

var errProto = errors.New("malformed profile")

// protoFields calls fn for every top-level field of a protobuf message.
// For varint fields v is the value and b nil; for length-delimited
// fields b is the payload.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// protoInts decodes a repeated integer field that may be packed (b set)
// or not (one value per occurrence).
func protoInts(v uint64, b []byte, out []uint64) ([]uint64, error) {
	if b == nil {
		return append(out, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// cpuSample is one profile sample: its stack as function names, leaf
// first, and its CPU time in nanoseconds.
type cpuSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes a CPU profile into samples. Inlined frames
// are expanded, so the leaf is the innermost function.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]uint64{} // function id → name string index
		locFuncs  = map[uint64][]uint64{}
		typeCount = 0
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			typeCount++
		case 2: // sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = protoInts(v, b, s.locs)
				case 2:
					s.vals, err = protoInts(v, b, s.vals)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; the last
	// value is the time.
	valueIdx := typeCount - 1
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.vals) {
			return nil, errProto
		}
		cs := cpuSample{nanos: int64(s.vals[valueIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuBuckets are the per-package CPU share metrics, in report order.
var cpuBuckets = []string{
	"kernels", "core", "server", "clustree", "wal", "persist",
	"net_http", "encoding_json", "runtime_gc", "syscall", "other",
}

// funcPackage is the import path of a function name such as
// "bayestree/internal/core.(*MultiQuery).Step".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// packageBuckets maps the packages that own a bucket.
var packageBuckets = map[string]string{
	"bayestree/internal/kernels":  "kernels",
	"bayestree/internal/core":     "core",
	"bayestree/internal/stats":    "core",
	"bayestree/internal/mbr":      "core",
	"bayestree/internal/server":   "server",
	"bayestree/internal/clustree": "clustree",
	"bayestree/internal/wal":      "wal",
	"bayestree/internal/persist":  "persist",
	"net/http":                    "net_http",
	"net/http/internal":           "net_http",
	"net/textproto":               "net_http",
	"net/url":                     "net_http",
	"net":                         "net_http",
	"bufio":                       "net_http",
	"encoding/json":               "encoding_json",
	"syscall":                     "syscall",
	"internal/runtime/syscall":    "syscall",
	"internal/poll":               "syscall",
}

// bucketOf attributes a sample's self time. Work under the garbage
// collector's workers or assists counts as GC. Otherwise the leaf
// function's package decides; a leaf in a shared helper (the runtime's
// allocator and memmove, math, sort, sync, strconv, …) is charged to
// the nearest caller whose package owns a bucket, and to other when no
// caller does (the scheduler, the benchmark's own generator).
func bucketOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination":
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if b, ok := packageBuckets[funcPackage(fn)]; ok {
			return b
		}
		if strings.HasPrefix(fn, "main.") {
			break
		}
	}
	return "other"
}

// cpuShares turns samples into the share of CPU time per bucket (all
// buckets present, summing to 1 when any time was sampled).
func cpuShares(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var total float64
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total > 0 {
		for b := range out {
			out[b] /= total
		}
	}
	return out
}
