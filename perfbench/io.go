package main

import (
	"context"
	"encoding/binary"
	"fmt"

	"rstore/internal/client"
	"rstore/internal/core"
)

// small-io and bulk-io share one implementation: one-sided reads of a
// striped region the benchmark filled with a seeded pattern, plus writes
// to, and read-backs from, each client's own part of a replicated region.
// Written blocks are windows of the same pattern, so the benchmark's
// record of a block's last write is one offset.

// ioShape sizes one of the two data-path workloads.
type ioShape struct {
	block       int     // bytes per op
	readRegion  int     // striped, read-only region (0: none)
	ownBlocks   int     // blocks of the replicated region each client owns
	readShare   float64 // share of ops reading the striped region
	writeShare  float64 // share writing an own block; the rest read one back
	stripeUnit  uint64  // stripe unit of both regions
	patternSize int     // seeded pattern the written windows come from
}

var smallIO = &workload{
	name:         "small-io",
	opsPerSecond: 30000,
	warmup:       10000,
	cluster:      core.Config{Machines: 5, ServerCapacity: 8 << 20},
	preload: ioShape{
		block: 4 << 10, readRegion: 16 << 20, ownBlocks: 256,
		readShare: 0.80, writeShare: 0.12,
		stripeUnit: 1 << 20, patternSize: 16 << 20,
	}.preload,
}

var bulkIO = &workload{
	name:         "bulk-io",
	opsPerSecond: 1000,
	warmup:       200,
	ramp:         7000,
	cluster:      core.Config{Machines: 5, ServerCapacity: 12 << 20},
	preload: ioShape{
		block: 1 << 20, ownBlocks: 8,
		writeShare: 0.5,
		stripeUnit: 1 << 20, patternSize: 4 << 20,
	}.preload,
}

// pattern returns n (a multiple of 8) seeded pseudo-random bytes
// (splitmix64).
func pattern(seed int64, n int) []byte {
	b := make([]byte, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= n; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(b[i:], z^(z>>31))
	}
	return b
}

type ioState struct {
	shape   ioShape
	e       *env
	pat     []byte
	clients []*ioClient
}

// ioClient is one load client's handles and its record of its own blocks.
type ioClient struct {
	read, write *client.Region
	patBuf, buf *client.Buf
	last        []int // pattern offset of each own block's last write
}

const (
	ioReadRegion  = "io-read"
	ioWriteRegion = "io-write"
)

func (s ioShape) preload(ctx context.Context, e *env, seed int64) (state, error) {
	st := &ioState{shape: s, e: e, pat: pattern(seed, s.patternSize)}
	admin := e.admin
	patBuf, err := admin.RegisterBuf(st.pat)
	if err != nil {
		return nil, err
	}
	defer patBuf.Release()
	fill := func(name string, size int, opts client.AllocOptions) error {
		r, err := admin.AllocMap(ctx, name, uint64(size), opts)
		if err != nil {
			return err
		}
		defer r.Unmap(ctx)
		const chunk = 1 << 20
		for off := 0; off < size; off += chunk {
			if _, err := r.WriteAt(ctx, uint64(off), patBuf, off%len(st.pat), chunk); err != nil {
				return fmt.Errorf("fill %s: %w", name, err)
			}
		}
		return nil
	}
	if s.readRegion > 0 {
		if err := fill(ioReadRegion, s.readRegion, client.AllocOptions{StripeUnit: s.stripeUnit}); err != nil {
			return nil, err
		}
	}
	writeSize := s.block * s.ownBlocks * len(e.loads)
	if err := fill(ioWriteRegion, writeSize, client.AllocOptions{StripeUnit: s.stripeUnit, Replicas: 1}); err != nil {
		return nil, err
	}
	for _, lc := range e.loads {
		ic := &ioClient{last: make([]int, s.ownBlocks)}
		if s.readRegion > 0 {
			if ic.read, err = lc.cli.Map(ctx, ioReadRegion); err != nil {
				return nil, err
			}
		}
		if ic.write, err = lc.cli.Map(ctx, ioWriteRegion); err != nil {
			return nil, err
		}
		if ic.patBuf, err = lc.cli.RegisterBuf(st.pat); err != nil {
			return nil, err
		}
		if ic.buf, err = lc.cli.AllocBuf(s.block); err != nil {
			return nil, err
		}
		for b := range ic.last {
			ic.last[b] = st.ownOffset(lc.id, b) % len(st.pat)
		}
		st.clients = append(st.clients, ic)
	}
	return st, nil
}

// ownOffset is where client c's block b starts in the replicated region.
func (st *ioState) ownOffset(c, b int) int {
	return (c*st.shape.ownBlocks + b) * st.shape.block
}

// readInto reads n bytes at off into the client's buffer and checks them
// against want and the modeled latency against the wire's floor.
func (st *ioState) readInto(ctx context.Context, lc *loadClient, r *client.Region, off int, want []byte) error {
	ic := st.clients[lc.id]
	var io client.IOStat
	err := lc.measure("client.read", func() (err error) {
		io, err = r.ReadAt(ctx, uint64(off), ic.buf, 0, len(want))
		return err
	})
	if err != nil {
		return err
	}
	if err := checkLatencyFloor("read", io.Latency().Duration(), len(want), st.e.params); err != nil {
		return err
	}
	return checkBytes(fmt.Sprintf("read %s@%d", r.Name(), off), ic.buf.Bytes()[:len(want)], want)
}

func (st *ioState) op(ctx context.Context, lc *loadClient) error {
	s, ic := st.shape, st.clients[lc.id]
	r := lc.rng.Float64()
	switch {
	case r < s.readShare:
		off := lc.rng.Intn(s.readRegion/s.block) * s.block
		return st.readInto(ctx, lc, ic.read, off, st.pat[off:off+s.block])
	case r < s.readShare+s.writeShare:
		b := lc.rng.Intn(s.ownBlocks)
		win := lc.rng.Intn((len(st.pat)-s.block)/8) * 8
		var io client.IOStat
		err := lc.measure("client.write", func() (err error) {
			io, err = ic.write.WriteAt(ctx, uint64(st.ownOffset(lc.id, b)), ic.patBuf, win, s.block)
			return err
		})
		if err != nil {
			return err
		}
		ic.last[b] = win
		return checkLatencyFloor("write", io.Latency().Duration(), s.block, st.e.params)
	default:
		b := lc.rng.Intn(s.ownBlocks)
		return st.readInto(ctx, lc, ic.write, st.ownOffset(lc.id, b), st.pat[ic.last[b]:ic.last[b]+s.block])
	}
}

// finish reads every block back through the admin client: the striped
// region must still hold the pattern, and every own block its last write.
func (st *ioState) finish(ctx context.Context) error {
	s := st.shape
	if s.readRegion > 0 {
		got := make([]byte, s.readRegion)
		r, err := st.e.admin.Map(ctx, ioReadRegion)
		if err != nil {
			return err
		}
		defer r.Unmap(ctx)
		if err := r.Read(ctx, 0, got); err != nil {
			return err
		}
		if err := checkBytes("final read region", got, st.pat[:s.readRegion]); err != nil {
			return err
		}
	}
	r, err := st.e.admin.Map(ctx, ioWriteRegion)
	if err != nil {
		return err
	}
	defer r.Unmap(ctx)
	got := make([]byte, s.block)
	for c, ic := range st.clients {
		for b, win := range ic.last {
			if err := r.Read(ctx, uint64(st.ownOffset(c, b)), got); err != nil {
				return err
			}
			if err := checkBytes(fmt.Sprintf("final client %d block %d", c, b), got, st.pat[win:win+s.block]); err != nil {
				return err
			}
		}
	}
	return nil
}
