package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file is a stdlib-only reader for the gzipped protobuf CPU
// profiles runtime/pprof writes (github.com/google/pprof is not a
// dependency). It decodes just enough of profile.proto to attribute
// each sample's CPU time to one bucket.

// Profile field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	valueTypeType = 1

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// cpuSample is one profile sample: its CPU nanoseconds and the function
// names on its stack, innermost first (inlined frames included).
type cpuSample struct {
	nanos  int64
	frames []string
}

// readCPUProfile decodes a gzipped CPU profile into samples.
func readCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs        []string
		sampleTypes []int64 // string index of each sample type
		rawSamples  [][]byte
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> string index
	)
	d := wire{b: raw}
	for !d.done() {
		f, typ := d.key()
		switch {
		case f == profSampleType && typ == 2:
			vt := wire{b: d.bytes()}
			var t int64
			for !vt.done() {
				g, gt := vt.key()
				if g == valueTypeType && gt == 0 {
					t = int64(vt.varint())
				} else {
					vt.skip(gt)
				}
			}
			sampleTypes = append(sampleTypes, t)
		case f == profSample && typ == 2:
			rawSamples = append(rawSamples, d.bytes())
		case f == profLocation && typ == 2:
			id, fns := decodeLocation(d.bytes())
			locFuncs[id] = fns
		case f == profFunction && typ == 2:
			fd := wire{b: d.bytes()}
			var id uint64
			var name int64
			for !fd.done() {
				g, gt := fd.key()
				switch {
				case g == functionID && gt == 0:
					id = fd.varint()
				case g == functionName && gt == 0:
					name = int64(fd.varint())
				default:
					fd.skip(gt)
				}
			}
			funcName[id] = name
		case f == profStringTable && typ == 2:
			strs = append(strs, string(d.bytes()))
		default:
			d.skip(typ)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("profile: %w", d.err)
	}

	cpuIdx := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}

	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		locs, vals, err := decodeSample(rs)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if cpuIdx >= len(vals) {
			return nil, errors.New("profile: sample is missing its cpu value")
		}
		s := cpuSample{nanos: vals[cpuIdx]}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.frames = append(s.frames, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// decodeLocation returns a location's id and its functions, innermost
// (the last inlined callee) first, as profile.proto orders Line.
func decodeLocation(b []byte) (uint64, []uint64) {
	d := wire{b: b}
	var id uint64
	var fns []uint64
	for !d.done() {
		f, typ := d.key()
		switch {
		case f == locationID && typ == 0:
			id = d.varint()
		case f == locationLine && typ == 2:
			ld := wire{b: d.bytes()}
			for !ld.done() {
				g, gt := ld.key()
				if g == lineFunction && gt == 0 {
					fns = append(fns, ld.varint())
				} else {
					ld.skip(gt)
				}
			}
		default:
			d.skip(typ)
		}
	}
	return id, fns
}

// decodeSample returns a sample's location ids (leaf first) and values.
// Both fields may be packed or repeated one by one.
func decodeSample(b []byte) ([]uint64, []int64, error) {
	d := wire{b: b}
	var locs []uint64
	var vals []int64
	for !d.done() {
		f, typ := d.key()
		switch {
		case f == sampleLocationID && typ == 2:
			p := wire{b: d.bytes()}
			for !p.done() {
				locs = append(locs, p.varint())
			}
			d.err = errors.Join(d.err, p.err)
		case f == sampleLocationID && typ == 0:
			locs = append(locs, d.varint())
		case f == sampleValue && typ == 2:
			p := wire{b: d.bytes()}
			for !p.done() {
				vals = append(vals, int64(p.varint()))
			}
			d.err = errors.Join(d.err, p.err)
		case f == sampleValue && typ == 0:
			vals = append(vals, int64(d.varint()))
		default:
			d.skip(typ)
		}
	}
	return locs, vals, d.err
}

// wire walks protobuf wire format. After the first error every read
// returns zero and done reports true.
type wire struct {
	b   []byte
	err error
}

func (w *wire) done() bool { return w.err != nil || len(w.b) == 0 }

func (w *wire) fail(msg string) {
	if w.err == nil {
		w.err = errors.New(msg)
	}
	w.b = nil
}

func (w *wire) varint() uint64 {
	var v uint64
	for i := 0; i < 10; i++ {
		if i >= len(w.b) {
			w.fail("truncated varint")
			return 0
		}
		c := w.b[i]
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			w.b = w.b[i+1:]
			return v
		}
	}
	w.fail("varint overflow")
	return 0
}

func (w *wire) key() (field int, typ int) {
	k := w.varint()
	return int(k >> 3), int(k & 7)
}

func (w *wire) bytes() []byte {
	n := w.varint()
	if n > uint64(len(w.b)) {
		w.fail("truncated field")
		return nil
	}
	v := w.b[:n]
	w.b = w.b[n:]
	return v
}

func (w *wire) skip(typ int) {
	switch typ {
	case 0:
		w.varint()
	case 1:
		w.advance(8)
	case 2:
		w.bytes()
	case 5:
		w.advance(4)
	default:
		w.fail(fmt.Sprintf("unsupported wire type %d", typ))
	}
}

func (w *wire) advance(n int) {
	if n > len(w.b) {
		w.fail("truncated fixed field")
		return
	}
	w.b = w.b[n:]
}

// modulePrefix marks the simulator's packages in function names.
const modulePrefix = "memhogs/internal/"

// gcRoots are the runtime's background collector goroutines; a sample
// with one of them on its stack (and no simulator frame) is GC work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// bucket attributes one stack (innermost first) to a layer:
//   - the package of the innermost memhogs/internal/<pkg> frame, so
//     runtime work a package calls (allocation, map lookups, channel
//     operations) is charged to that package;
//   - else "gc" for the background collector;
//   - else "sched" when every frame is the Go runtime's (scheduling
//     and goroutine handoff between simulated processes);
//   - else "other" (the benchmark's own code, the public facade).
func bucket(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		for _, r := range gcRoots {
			if f == r {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if !isRuntime(f) {
			return "other"
		}
	}
	return "sched"
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "runtime/") ||
		strings.HasPrefix(f, "internal/runtime/")
}

// cpuByBucket sums sample CPU time per bucket, in seconds.
func cpuByBucket(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[bucket(s.frames)] += float64(s.nanos) / 1e9
	}
	return out
}
