package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuProfile is what the benchmark reads out of a runtime/pprof CPU
// profile: samples by the host-share row of their leaf frame, samples
// spent in garbage collection, and samples under chosen functions.
type cpuProfile struct {
	total    int64
	periodNS int64
	leaf     map[string]int64 // share row -> samples whose leaf frame is in it
	gc       int64            // samples with a GC frame on the stack
	under    map[string]int64 // function-name prefix -> samples with a matching frame
}

// gcRoots are the runtime functions every stretch of GC work runs under:
// background mark workers, mutator assists, the sweeper and the scavenger.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// readCPUProfile decodes a gzipped profile.proto written by
// runtime/pprof. under lists function-name prefixes whose inclusive
// samples the caller wants.
func readCPUProfile(path string, under []string) (*cpuProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := &cpuProfile{periodNS: p.period, leaf: map[string]int64{}, under: map[string]int64{}}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcNames[fn]])
			}
		}
		out.total += s.count
		out.leaf[shareRow(leafFrame(frames))] += s.count
		if hasFrame(frames, gcRoots) {
			out.gc += s.count
		}
		for _, u := range under {
			if hasFrame(frames, []string{u}) {
				out.under[u] += s.count
			}
		}
	}
	return out, nil
}

// leafFrame is the innermost frame, skipping sync/atomic: its wrappers
// inline into the caller as single instructions, so the work belongs to
// the layer that called them.
func leafFrame(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, "sync/atomic.") {
			return f
		}
	}
	return ""
}

func hasFrame(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// shareRow maps a function name to its host-share row.
func shareRow(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "fidelius/internal/"):
		name := strings.TrimPrefix(pkg, "fidelius/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, row := range shareRows {
			if row == name {
				return row
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "crypto/") || strings.Contains(pkg, "golang.org/x/crypto/"):
		return "crypto"
	}
	return "other"
}

// rawProfile is the subset of profile.proto the benchmark reads.
type rawProfile struct {
	samples   []rawSample
	locFuncs  map[uint64][]uint64 // location -> function ids, innermost first
	funcNames map[uint64]int64    // function -> string-table index
	strings   []string
	period    int64
}

type rawSample struct {
	locs  []uint64 // leaf first
	count int64
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	profPeriod      = 12

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s rawSample
			var values []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return appendPacked(&s.locs, v, data)
				case sampleValue:
					return appendPacked(&values, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
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
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		case profPeriod:
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message. Varint fields arrive as v with
// nil data, length-delimited fields as data; fixed-width fields are
// skipped (profile.proto has none).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}
