package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) without the pprof library, which the repository does not
// vendor, and attributes each sample to one layer of the stack.

// cpuModules are the repository modules reported as their own CPU
// bucket. Samples whose innermost repository frame is another internal
// package (core, proto, health, ...) go to "other".
var cpuModules = []string{
	"simnet", "rdma", "rpc", "client", "master", "memserver",
	"txn", "index", "kvstore", "telemetry", "proto",
}

// cpuBuckets lists every bucket a sample can land in, in report order.
var cpuBuckets = append(append([]string(nil), cpuModules...), "other", "bench", "tracing", "gc", "sched")

// stackSample is one profile sample: its stack as function names, leaf
// first, and the CPU nanoseconds it stands for.
type stackSample struct {
	frames []string
	nanos  int64
}

// bucketOf attributes one stack. Work the benchmark's span collector
// does (reading span rings, assembling critical paths) counts to
// "tracing" even inside telemetry code, so tracing's own cost does not
// inflate the telemetry layer. Otherwise the innermost rstore/internal
// frame names the module, so memmove under rdma counts to rdma. A stack
// with no such frame but with the benchmark's own code counts to
// "bench"; the rest to the garbage collector when a GC frame is on it,
// and to the scheduler and the rest of the runtime when not.
func bucketOf(frames []string) string {
	const internal = "rstore/internal/"
	for _, f := range frames {
		if rest, ok := benchFrame(f); ok &&
			(strings.HasPrefix(rest, "(*traceCollector)") || strings.HasPrefix(rest, "(*traceTotals)")) {
			return "tracing"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internal); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, m := range cpuModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		if _, ok := benchFrame(f); ok {
			return "bench"
		}
	}
	for _, f := range frames {
		for _, p := range []string{"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	return "sched"
}

// benchFrame reports whether a frame is the benchmark's own code, which
// is package main in the command and rstore/perfbench in its tests, and
// returns the name within the package.
func benchFrame(f string) (string, bool) {
	if rest, ok := strings.CutPrefix(f, "main."); ok {
		return rest, true
	}
	return strings.CutPrefix(f, "rstore/perfbench.")
}

// attribute sums sample nanoseconds per bucket.
func attribute(samples []stackSample) map[string]int64 {
	out := make(map[string]int64, len(cpuBuckets))
	for _, s := range samples {
		out[bucketOf(s.frames)] += s.nanos
	}
	return out
}

// pbuf walks one protobuf message.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflow")
	return 0
}

// next returns the next field's number and wire type, plus its payload
// for length-delimited fields or its value for varints.
func (p *pbuf) next() (field int, wire int, val uint64, data []byte) {
	key := p.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// ints reads a repeated integer field that may be packed or not.
func ints(wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{val}, nil
	}
	q := pbuf{b: data}
	var out []uint64
	for len(q.b) > 0 && q.err == nil {
		out = append(out, q.varint())
	}
	return out, q.err
}

// parseProfile decodes a gzipped pprof CPU profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		types     []uint64 // string index of each sample type
		samples   []sample
		locLines  = make(map[uint64][]uint64) // location id -> function ids, leaf first
		funcNames = make(map[uint64]uint64)   // function id -> string index
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		field, _, _, data := p.next()
		if p.err != nil {
			break
		}
		switch field {
		case 1: // sample_type
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				if f, _, v, _ := q.next(); f == 1 {
					types = append(types, v)
				}
			}
			p.err = q.err
		case 2: // sample
			var s sample
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				f, w, v, d := q.next()
				var xs []uint64
				if f == 1 || f == 2 {
					if xs, err = ints(w, v, d); err != nil {
						return nil, fmt.Errorf("profile sample: %w", err)
					}
				}
				if f == 1 {
					s.locs = append(s.locs, xs...)
				} else if f == 2 {
					s.vals = append(s.vals, xs...)
				}
			}
			p.err = q.err
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				f, _, v, d := q.next()
				switch f {
				case 1:
					id = v
				case 4: // line
					r := pbuf{b: d}
					for len(r.b) > 0 && r.err == nil {
						if lf, _, lv, _ := r.next(); lf == 1 {
							fns = append(fns, lv)
						}
					}
					if r.err != nil {
						q.err = r.err
					}
				}
			}
			p.err = q.err
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				f, _, v, _ := q.next()
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			p.err = q.err
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU profile's values are [samples/count, cpu/nanoseconds].
	vi := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locLines[l] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, stackSample{frames: frames, nanos: int64(s.vals[vi])})
	}
	return out, nil
}
