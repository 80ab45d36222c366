package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"rstore/internal/client"
	"rstore/internal/index"
	"rstore/internal/proto"
	"rstore/internal/simnet"
)

// mismatch is a failed correctness check: the program answered, but not
// with what the benchmark computed apart from it. An operation that
// returns an error instead counts as failed, not as a mismatch.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{msg: fmt.Sprintf(format, args...)}
}

func isMismatch(err error) bool {
	var m *mismatch
	return errors.As(err, &m)
}

// checkBytes compares bytes read from the store with the benchmark's own
// record of what should be there.
func checkBytes(what string, got, want []byte) error {
	if len(got) != len(want) {
		return mismatchf("%s: read %d bytes, want %d", what, len(got), len(want))
	}
	if bytes.Equal(got, want) {
		return nil
	}
	for i := range got {
		if got[i] != want[i] {
			return mismatchf("%s: byte %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkLatencyFloor rejects a remote op whose modeled latency is below
// the serialization time of its bytes on one link: no model of the wire
// can deliver faster than the wire.
func checkLatencyFloor(what string, lat time.Duration, n int, p simnet.Params) error {
	if floor := p.SerializationTime(n); lat < floor {
		return mismatchf("%s: modeled latency %v below the %v serialization time of %d bytes", what, lat, floor, n)
	}
	return nil
}

// checkGet compares a point lookup with the oracle: want is nil for a key
// that must be absent.
func checkGet(key, got []byte, err error, want []byte) error {
	switch {
	case want == nil && errors.Is(err, index.ErrNotFound):
		return nil
	case want == nil && err == nil:
		return mismatchf("get %q: found %q for an absent key", key, got)
	case err != nil && errors.Is(err, index.ErrNotFound):
		return mismatchf("get %q: missing, want %q", key, want)
	case err != nil:
		return err
	case !bytes.Equal(got, want):
		return mismatchf("get %q: got %q, want %q", key, got, want)
	}
	return nil
}

// checkScan checks one range scan over [start, end) (an empty end runs to
// the end of the keyspace). Keys must be strictly increasing and inside
// the range; every key in required must appear with its value, and no
// other key may.
func checkScan(ents []index.Entry, start, end []byte, required map[string][]byte) error {
	seen := 0
	for i, e := range ents {
		if bytes.Compare(e.Key, start) < 0 || (len(end) > 0 && bytes.Compare(e.Key, end) >= 0) {
			return mismatchf("scan [%q,%q): key %q outside the range", start, end, e.Key)
		}
		if i > 0 && bytes.Compare(ents[i-1].Key, e.Key) >= 0 {
			return mismatchf("scan [%q,%q): key %q after %q is out of order", start, end, e.Key, ents[i-1].Key)
		}
		if want, ok := required[string(e.Key)]; ok {
			if !bytes.Equal(e.Val, want) {
				return mismatchf("scan [%q,%q): key %q has %q, want %q", start, end, e.Key, e.Val, want)
			}
			seen++
			continue
		}
		return mismatchf("scan [%q,%q): unexpected key %q=%q", start, end, e.Key, e.Val)
	}
	if seen != len(required) {
		for k := range required {
			found := false
			for _, e := range ents {
				if string(e.Key) == k {
					found = true
					break
				}
			}
			if !found {
				return mismatchf("scan [%q,%q): key %q missing", start, end, k)
			}
		}
	}
	return nil
}

// clusterState is what control-plane churn must leave as it found it.
type clusterState struct {
	regions []client.RegionSummary
	used    map[simnet.NodeID]uint64
}

func newClusterState(regions []client.RegionSummary, servers []proto.ServerInfo) clusterState {
	st := clusterState{regions: regions, used: make(map[simnet.NodeID]uint64, len(servers))}
	for _, s := range servers {
		st.used[s.Node] = s.Used
	}
	return st
}

// checkRestored compares the region table and every server's used bytes
// after a run with their values before it: a region or byte left behind
// is a leak.
func checkRestored(before, after clusterState) error {
	names := make(map[string]bool, len(before.regions))
	for _, r := range before.regions {
		names[r.Name] = true
	}
	for _, r := range after.regions {
		if !names[r.Name] {
			return mismatchf("region %q (%d bytes) leaked", r.Name, r.Size)
		}
		delete(names, r.Name)
	}
	for n := range names {
		return mismatchf("region %q vanished", n)
	}
	for node, u := range before.used {
		if a, ok := after.used[node]; !ok || a != u {
			return mismatchf("server %v uses %d bytes after the run, %d before", node, a, u)
		}
	}
	for node := range after.used {
		if _, ok := before.used[node]; !ok {
			return mismatchf("server %v appeared during the run", node)
		}
	}
	return nil
}
