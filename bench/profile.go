package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzip-compressed
// protocol buffers, profile.proto) with the standard library alone, and
// attributes every sample to one layer of the program.

// cpuBuckets lists the layers CPU samples are attributed to, in report
// order. The shares over these buckets sum to 1.
var cpuBuckets = []string{
	"cpu.sim", "cpu.core.step", "cpu.core.learn", "cpu.nogood", "cpu.csp",
	"cpu.async", "cpu.wire", "cpu.netrun", "cpu.service", "cpu.bench",
	"cpu.other", "cpu.syscall", "cpu.runtime",
}

// modulePath prefixes the function names of every package of the solver.
const modulePath = "github.com/discsp/discsp"

// layerOfPackage maps a solver package to its bucket; packages not listed
// land in cpu.other.
var layerOfPackage = map[string]string{
	modulePath + "/internal/sim":     "cpu.sim",
	modulePath + "/internal/nogood":  "cpu.nogood",
	modulePath + "/internal/csp":     "cpu.csp",
	modulePath + "/internal/async":   "cpu.async",
	modulePath + "/internal/wire":    "cpu.wire",
	modulePath + "/internal/netrun":  "cpu.netrun",
	modulePath + "/internal/service": "cpu.service",
}

// frame is one (possibly inlined) function activation of a sample's stack.
type frame struct {
	function string
	file     string
}

// cpuSample is one stack (innermost frame first) with its sample count.
type cpuSample struct {
	stack []frame
	count int64
}

// bucketOf applies the attribution rule to one stack:
//   - cpu.syscall if any frame is a system-call wrapper;
//   - otherwise the innermost frame from the solver's module or from the
//     benchmark itself (package main, named by its import path in test
//     binaries), by package, with internal/core split into cpu.core.learn
//     (learn.go) and cpu.core.step (its other files);
//   - otherwise cpu.runtime, the residual: the scheduler, the garbage
//     collector and standard-library code no solver frame called.
func bucketOf(stack []frame) string {
	for _, f := range stack {
		if isSyscallFrame(f.function) {
			return "cpu.syscall"
		}
	}
	for _, f := range stack {
		pkg := packageOf(f.function)
		switch {
		case pkg == "main" || pkg == modulePath+"/bench":
			return "cpu.bench"
		case pkg == modulePath+"/internal/core":
			if path.Base(f.file) == "learn.go" {
				return "cpu.core.learn"
			}
			return "cpu.core.step"
		case pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/"):
			if b, ok := layerOfPackage[pkg]; ok {
				return b
			}
			return "cpu.other"
		}
	}
	return "cpu.runtime"
}

// isSyscallFrame reports whether fn is a system-call entry: the syscall
// package or the runtime's raw syscall wrappers (socket reads and writes,
// and the network poller's epoll calls, all pass through these).
func isSyscallFrame(fn string) bool {
	switch packageOf(fn) {
	case "syscall", "internal/runtime/syscall", "runtime/internal/syscall":
		return true
	}
	return false
}

// packageOf extracts the import path from a symbol name such as
// "github.com/discsp/discsp/internal/core.(*Agent).Step".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares attributes samples to buckets and returns each bucket's share
// of the total count (every bucket present, all zero when there are no
// samples) and the total.
func cpuShares(samples []cpuSample) (map[string]float64, int64) {
	counts := make(map[string]int64, len(cpuBuckets))
	var total int64
	for _, s := range samples {
		counts[bucketOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = ratio(float64(counts[b]), float64(total))
	}
	return shares, total
}

// parseCPUProfile decodes a runtime/pprof CPU profile into stacks of
// function names with their sample counts (the first sample value).
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type line struct{ function uint64 }
	type function struct{ name, file int64 }
	type sample struct {
		locations []uint64
		values    []int64
	}
	var (
		strs      []string
		samples   []sample
		locations = map[uint64][]line{}
		functions = map[uint64]function{}
	)
	// profile.proto field numbers: Profile.sample = 2, .location = 4,
	// .function = 5, .string_table = 6; Sample.location_id = 1, .value = 2;
	// Location.id = 1, .line = 4; Line.function_id = 1; Function.id = 1,
	// .name = 2, .filename = 4.
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var lines []line
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					if err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							l.function = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			})
			locations[id] = lines
			return err
		case 5:
			var id uint64
			var f function
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []frame
		for _, loc := range s.locations {
			for _, l := range locations[loc] {
				f := functions[l.function]
				stack = append(stack, frame{function: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, cpuSample{stack: stack, count: s.values[0]})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its bytes.
// Fixed-width fields are skipped; the profile format does not use them.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when it
// arrived unpacked (data nil), every varint in data when packed.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
