package main

import (
	"context"
	"fmt"

	"rstore/internal/client"
	"rstore/internal/core"
)

// control-churn cycles regions through their whole life: alloc, map, a
// 4 KiB write and its read-back, unmap, free. Three master replicas make
// every metadata change commit-wait on two standbys. One cycle is one
// logical op.

const (
	churnRegion = 64 << 10
	churnBlock  = 4 << 10
)

var controlChurn = &workload{
	name:         "control-churn",
	opsPerSecond: 450,
	warmup:       300,
	ramp:         3000,
	cluster:      core.Config{Machines: 6, MasterReplicas: 3, ServerCapacity: 4 << 20},
	preload:      preloadChurn,
}

type churnState struct {
	e       *env
	pat     []byte
	before  clusterState
	clients []*churnClient
}

type churnClient struct {
	patBuf, buf *client.Buf
	cycles      int
}

func preloadChurn(ctx context.Context, e *env, seed int64) (state, error) {
	st := &churnState{e: e, pat: pattern(seed, 1<<20)}
	var err error
	if st.before, err = readClusterState(ctx, e); err != nil {
		return nil, err
	}
	for _, lc := range e.loads {
		cc := &churnClient{}
		if cc.patBuf, err = lc.cli.RegisterBuf(st.pat); err != nil {
			return nil, err
		}
		if cc.buf, err = lc.cli.AllocBuf(churnBlock); err != nil {
			return nil, err
		}
		st.clients = append(st.clients, cc)
	}
	return st, nil
}

func readClusterState(ctx context.Context, e *env) (clusterState, error) {
	regions, err := e.admin.ListRegions(ctx)
	if err != nil {
		return clusterState{}, err
	}
	servers, err := e.admin.ClusterInfo(ctx)
	if err != nil {
		return clusterState{}, err
	}
	return newClusterState(regions, servers), nil
}

func (st *churnState) op(ctx context.Context, lc *loadClient) error {
	cc := st.clients[lc.id]
	name := fmt.Sprintf("churn-%d-%d", lc.id, cc.cycles)
	cc.cycles++
	off := lc.rng.Intn(churnRegion/churnBlock) * churnBlock
	win := lc.rng.Intn((len(st.pat)-churnBlock)/8) * 8
	want := st.pat[win : win+churnBlock]

	if err := lc.measure("client.alloc", func() error {
		_, err := lc.cli.Alloc(ctx, name, churnRegion, client.AllocOptions{})
		return err
	}); err != nil {
		return err
	}
	var r *client.Region
	if err := lc.measure("client.map", func() (err error) {
		r, err = lc.cli.Map(ctx, name)
		return err
	}); err != nil {
		return err
	}
	var wio, rio client.IOStat
	err := lc.measure("client.write", func() (err error) {
		wio, err = r.WriteAt(ctx, uint64(off), cc.patBuf, win, churnBlock)
		return err
	})
	if err == nil {
		err = lc.measure("client.read", func() (err error) {
			rio, err = r.ReadAt(ctx, uint64(off), cc.buf, 0, churnBlock)
			return err
		})
	}
	if err != nil {
		return err
	}
	if err := r.Unmap(ctx); err != nil {
		return err
	}
	if err := lc.measure("client.free", func() error { return lc.cli.Free(ctx, name) }); err != nil {
		return err
	}
	if err := checkLatencyFloor("write", wio.Latency().Duration(), churnBlock, st.e.params); err != nil {
		return err
	}
	if err := checkLatencyFloor("read", rio.Latency().Duration(), churnBlock, st.e.params); err != nil {
		return err
	}
	return checkBytes("read-back of "+name, cc.buf.Bytes(), want)
}

// finish checks that the churn left no region and no used byte behind.
func (st *churnState) finish(ctx context.Context) error {
	after, err := readClusterState(ctx, st.e)
	if err != nil {
		return err
	}
	return checkRestored(st.before, after)
}
