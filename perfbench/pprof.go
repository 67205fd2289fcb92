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

// modules are the layers host time is folded into. "observe" is the
// metrics registry, the trace and span machinery, and this benchmark's own
// decorator and bookkeeping; "runtime" is the Go runtime and GC, and any
// standard-library time not called from a repository package.
var modules = []string{"mem", "cachesim", "core", "shard", "serve", "apps", "observe", "runtime"}

// moduleOf maps a profiled function name to its module, or "" for a
// function outside the repository (the runtime and standard library).
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "observe"
	case !strings.HasPrefix(fn, "regions/internal/"):
		return ""
	}
	pkg := strings.TrimPrefix(fn, "regions/internal/")
	switch {
	case strings.HasPrefix(pkg, "apps/"):
		return "apps"
	case strings.HasPrefix(pkg, "mem."):
		return "mem"
	case strings.HasPrefix(pkg, "cachesim."):
		return "cachesim"
	case strings.HasPrefix(pkg, "core."), strings.HasPrefix(pkg, "stats."):
		return "core"
	case strings.HasPrefix(pkg, "shard."):
		return "shard"
	case strings.HasPrefix(pkg, "serve."):
		return "serve"
	case strings.HasPrefix(pkg, "metrics."), strings.HasPrefix(pkg, "trace."):
		return "observe"
	}
	return ""
}

// hostShares folds a runtime/pprof CPU profile by module: each sample is
// charged to the innermost repository frame on its stack, so runtime work
// a layer causes (allocation, map lookups, GC assists) counts against that
// layer, and only stacks with no repository frame (background GC, the
// scheduler) count as "runtime". The shares sum to 1.
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byModule := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if m := moduleOf(p.strings[p.funcName[fn]]); m != "" {
					mod = m
					break stack
				}
			}
		}
		byModule[mod] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, errors.New("cpu profile has no samples")
	}
	for _, m := range modules {
		shares[m] = float64(byModule[m]) / float64(total)
	}
	return shares, nil
}

// profile is the part of a profile.proto message the folding needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			var values []uint64
			err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case fSampleLocation:
					return appendPacked(&s.locs, wire, v, d)
				case fSampleValue:
					return appendPacked(&values, wire, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// appendPacked appends a repeated integer field, which encoders may write
// packed (one length-delimited run) or one varint per element.
func appendPacked(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and either its integer value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
