package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pbEnc writes the protobuf wire format, enough to hand-build a profile.
type pbEnc struct{ b []byte }

func (e *pbEnc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *pbEnc) uint(field int, v uint64) {
	e.varint(uint64(field)<<3 | 0)
	e.varint(v)
}

func (e *pbEnc) bytes(field int, p []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(p)))
	e.b = append(e.b, p...)
}

func (e *pbEnc) packed(field int, vs ...uint64) {
	var p pbEnc
	for _, v := range vs {
		p.varint(v)
	}
	e.bytes(field, p.b)
}

// handProfile builds a gzipped CPU profile with one sample per stack
// (function names leaf first), each worth 10ms. The first stack's two
// innermost frames share one location, as an inlined call does.
func handProfile(t *testing.T, stacks [][]string) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := map[string]uint64{}
	var prof pbEnc
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbEnc
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		prof.bytes(1, m.b)
	}
	var locID uint64
	for si, stack := range stacks {
		var locs []uint64
		// groups of frames per location: the first stack's leaf is inlined.
		var groups [][]string
		for i := 0; i < len(stack); i++ {
			if si == 0 && i == 0 && len(stack) > 1 {
				groups = append(groups, stack[:2])
				i++
				continue
			}
			groups = append(groups, stack[i:i+1])
		}
		for _, g := range groups {
			locID++
			var loc pbEnc
			loc.uint(1, locID)
			for _, fn := range g {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					strs = append(strs, fn)
					var f pbEnc
					f.uint(1, id)
					f.uint(2, uint64(len(strs)-1))
					prof.bytes(5, f.b)
				}
				var line pbEnc
				line.uint(1, id)
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		var s pbEnc
		s.packed(1, locs...)
		s.packed(2, 1, uint64(10*time.Millisecond))
		prof.bytes(2, s.b)
	}
	for _, str := range strs {
		prof.bytes(6, []byte(str))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributionHandBuiltProfile(t *testing.T) {
	stacks := [][]string{
		{"runtime.memmove", "rstore/internal/rdma.(*QP).execRead", "rstore/internal/rdma.(*QP).run", "runtime.goexit"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
		{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"},
		{"bytes.Equal", "main.checkBytes", "main.(*ioState).op", "main.(*loadClient).runOne"},
		{"runtime.mallocgc", "rstore/internal/telemetry.(*Tracer).Spans", "main.(*traceCollector).flush"},
		{"rstore/internal/simnet.(*line).reserve", "rstore/internal/simnet.(*Fabric).Transfer", "rstore/internal/rdma.(*QP).execRead"},
		{"rstore/internal/core.Start", "main.boot"},
	}
	want := []string{"rdma", "gc", "sched", "bench", "tracing", "simnet", "other"}

	samples, err := parseProfile(handProfile(t, stacks))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.frames) != len(stacks[i]) {
			t.Fatalf("sample %d: frames %q, want %q", i, s.frames, stacks[i])
		}
		for j := range s.frames {
			if s.frames[j] != stacks[i][j] {
				t.Fatalf("sample %d: frames %q, want %q (leaf first)", i, s.frames, stacks[i])
			}
		}
		if s.nanos != int64(10*time.Millisecond) {
			t.Errorf("sample %d: %d ns, want 10ms", i, s.nanos)
		}
		if got := bucketOf(s.frames); got != want[i] {
			t.Errorf("stack %q: bucket %q, want %q", stacks[i], got, want[i])
		}
	}
	att := attribute(samples)
	var sum int64
	for _, b := range cpuBuckets {
		sum += att[b]
	}
	if sum != int64(len(stacks))*int64(10*time.Millisecond) {
		t.Errorf("buckets sum to %d ns, want every sample counted once", sum)
	}
}

var burnSink int

// TestParseRealProfile checks the decoder against runtime/pprof's own
// output: a busy loop's CPU lands in the benchmark bucket.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			burnSink += i * i
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	att := attribute(samples)
	var sum int64
	for _, v := range att {
		sum += v
	}
	if sum < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU for a 300ms busy loop", time.Duration(sum))
	}
	if att["bench"] < sum/2 {
		t.Errorf("busy loop attributed %v of %v to bench; buckets %v", time.Duration(att["bench"]), time.Duration(sum), att)
	}
}

func TestParseTruncatedProfile(t *testing.T) {
	gz := handProfile(t, [][]string{{"runtime.memmove", "rstore/internal/rdma.(*QP).execRead"}})
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	if _, err := zw.Write(raw.Bytes()[:raw.Len()-3]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(cut.Bytes()); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}
