package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"rstore/internal/client"
	"rstore/internal/index"
	"rstore/internal/proto"
	"rstore/internal/simnet"
)

// Every checker must be able to fail: each is fed a corrupted output and
// must report a mismatch, and the uncorrupted output must pass.

func wantMismatch(t *testing.T, what string, err error) {
	t.Helper()
	if !isMismatch(err) {
		t.Errorf("%s: got %v, want a mismatch", what, err)
	}
}

func TestCheckBytesFlippedByte(t *testing.T) {
	want := pattern(7, 4096)
	got := append([]byte(nil), want...)
	if err := checkBytes("intact", got, want); err != nil {
		t.Fatalf("intact block: %v", err)
	}
	got[1234] ^= 0x01
	wantMismatch(t, "flipped byte", checkBytes("flipped", got, want))
	wantMismatch(t, "short read", checkBytes("short", want[:4095], want))
}

func TestPatternSeeded(t *testing.T) {
	a, b, c := pattern(1, 64), pattern(1, 64), pattern(2, 64)
	if string(a) != string(b) {
		t.Fatal("the same seed gave different patterns")
	}
	if string(a) == string(c) {
		t.Fatal("different seeds gave the same pattern")
	}
}

func TestCheckLatencyFloor(t *testing.T) {
	p := simnet.DefaultParams()
	floor := p.SerializationTime(4096)
	if err := checkLatencyFloor("read", floor, 4096, p); err != nil {
		t.Fatalf("latency at the floor: %v", err)
	}
	wantMismatch(t, "faster than the wire", checkLatencyFloor("read", floor-time.Nanosecond, 4096, p))
}

func TestCheckGet(t *testing.T) {
	key, val := []byte("k00000008"), []byte("v00000008/0")
	if err := checkGet(key, val, nil, val); err != nil {
		t.Fatalf("correct hit: %v", err)
	}
	if err := checkGet(key, nil, index.ErrNotFound, nil); err != nil {
		t.Fatalf("correct miss: %v", err)
	}
	wantMismatch(t, "missing key", checkGet(key, nil, index.ErrNotFound, val))
	wantMismatch(t, "extra key", checkGet(key, val, nil, nil))
	wantMismatch(t, "wrong value", checkGet(key, []byte("v00000008/1"), nil, val))
	opErr := errors.New("io failed")
	if err := checkGet(key, nil, opErr, val); !errors.Is(err, opErr) || isMismatch(err) {
		t.Errorf("failed op: got %v, want the op's own error", err)
	}
}

func entries(kv ...string) []index.Entry {
	var out []index.Entry
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, index.Entry{Key: []byte(kv[i]), Val: []byte(kv[i+1])})
	}
	return out
}

func TestCheckScan(t *testing.T) {
	start, end := []byte("k00000000"), []byte("k00000064")
	required := map[string][]byte{"k00000000": []byte("a"), "k00000004": []byte("b")}
	cases := []struct {
		name string
		ents []index.Entry
		ok   bool
	}{
		{"exact", entries("k00000000", "a", "k00000004", "b"), true},
		{"out of order", entries("k00000004", "b", "k00000000", "a"), false},
		{"duplicate", entries("k00000000", "a", "k00000000", "a", "k00000004", "b"), false},
		{"missing key", entries("k00000000", "a"), false},
		{"extra key", entries("k00000000", "a", "k00000002", "x", "k00000004", "b"), false},
		{"wrong value", entries("k00000000", "a", "k00000004", "z"), false},
		{"outside the range", entries("k00000000", "a", "k00000004", "b", "k00000064", "d"), false},
	}
	for _, c := range cases {
		err := checkScan(c.ents, start, end, required)
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok {
			wantMismatch(t, c.name, err)
		}
	}
}

func TestKVOracle(t *testing.T) {
	o := newKVOracle(2)
	mine, theirs := ownKey(0, 0), ownKey(1, 0)
	rng := rand.New(rand.NewSource(1))
	if _, ok := o.recent(1, rng); ok {
		t.Fatal("recent insert of a client that inserted nothing")
	}
	o.commit(theirs, 1)
	o.commit(mine, 0)
	must := o.span(0, 8)
	if len(must) != 2 || string(must[string(kvKey(theirs))]) != string(kvValue(theirs, 1)) {
		t.Fatalf("returned inserts: must %q", must)
	}
	// A scan that misses the other client's returned insert fails.
	err := checkScan(entries(string(kvKey(mine)), string(kvValue(mine, 0))), kvKey(0), kvKey(8), must)
	wantMismatch(t, "scan without the other client's key", err)
	if i, ok := o.recent(1, rng); !ok || i != theirs {
		t.Errorf("recent insert of client 1 = %d, %v; want %d", i, ok, theirs)
	}
}

func TestCheckRestored(t *testing.T) {
	servers := []proto.ServerInfo{{Node: 1, Used: 0}, {Node: 2, Used: 4096}}
	before := newClusterState([]client.RegionSummary{{Name: "keep", Size: 4096}}, servers)
	if err := checkRestored(before, before); err != nil {
		t.Fatalf("unchanged cluster: %v", err)
	}
	leaked := newClusterState([]client.RegionSummary{{Name: "keep", Size: 4096}, {Name: "churn-0-7", Size: 65536}}, servers)
	wantMismatch(t, "leaked region", checkRestored(before, leaked))
	vanished := newClusterState(nil, servers)
	wantMismatch(t, "vanished region", checkRestored(before, vanished))
	used := newClusterState(before.regions, []proto.ServerInfo{{Node: 1, Used: 65536}, {Node: 2, Used: 4096}})
	wantMismatch(t, "leaked bytes", checkRestored(before, used))
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if _, err := percentile(samples, 0.99); !errors.Is(err, errThinTail) {
		t.Fatalf("p99 of 999 samples: got %v, want errThinTail", err)
	}
	samples = append(samples, 1000)
	v, err := percentile(samples, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 990 with ten samples beyond it", v, err)
	}
	if v, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || v != 2 {
		t.Fatalf("p50 of 3 samples = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("p50 of no samples succeeded")
	}
	if v, err := tailMean(samples, 0.99); err != nil || v != 995.5 {
		t.Fatalf("mean of the slowest 1%% of 1..1000 = %v, %v; want 995.5", v, err)
	}
	if _, err := tailMean(samples[:999], 0.99); !errors.Is(err, errThinTail) {
		t.Fatalf("tail mean of 999 samples: got %v, want errThinTail", err)
	}
}
