package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"rstore/internal/client"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// flushEvery is how many sampled ops a client buffers before it reads the
// span rings. Few enough that a ring (4096 spans) cannot wrap past them.
const flushEvery = 16

// vcpLayers are the modeled-latency buckets of a sampled op: the four
// critical-path layers, spans of other layers (index, txn), and modeled
// control charges no span covers (connects, buffer registrations).
var vcpLayers = []struct{ layer, metric string }{
	{telemetry.LayerClientQueue, "vcp.client_queue_us"},
	{telemetry.LayerRPCWire, "vcp.rpc_wire_us"},
	{telemetry.LayerServerHandler, "vcp.server_handler_us"},
	{telemetry.LayerOneSidedIO, "vcp.onesided_io_us"},
	{telemetry.LayerOther, "vcp.other_us"},
	{"unspanned", "vcp.unspanned_us"},
}

// sampledOp is one op the tracer sampled, with what the benchmark
// measured around it.
type sampledOp struct {
	id     telemetry.TraceID
	v0, v1 simnet.VTime // the client's data-path clock around the op
	ctrl   client.ControlStats
	vlat   time.Duration
}

// traceTotals accumulates the split of every sampled op.
type traceTotals struct {
	mu         sync.Mutex
	ops        int
	layers     map[string]time.Duration
	unsplit    int // sampled ops whose split does not sum to their latency
	firstBad   string
	rpcCalls   []float64 // rpc.call span durations, µs
	txnCommits []float64 // txn.commit span durations, µs
}

func newTraceTotals() *traceTotals {
	return &traceTotals{layers: make(map[string]time.Duration)}
}

// traceCollector buffers one client's sampled ops and splits them.
type traceCollector struct {
	lc      *loadClient
	totals  *traceTotals
	pending []sampledOp
}

func (tc *traceCollector) add(op sampledOp) {
	tc.pending = append(tc.pending, op)
	if len(tc.pending) >= flushEvery {
		tc.flush()
	}
}

// flush reads every node's span ring once and splits each pending op.
func (tc *traceCollector) flush() {
	if len(tc.pending) == 0 {
		return
	}
	want := make(map[telemetry.TraceID][]telemetry.Span, len(tc.pending))
	for _, op := range tc.pending {
		want[op.id] = nil
	}
	tracers := []*telemetry.Tracer{tc.lc.cli.Telemetry().Tracer()}
	for _, m := range tc.lc.e.cluster.Masters() {
		tracers = append(tracers, m.Telemetry().Tracer())
	}
	for _, s := range tc.lc.e.cluster.Servers() {
		tracers = append(tracers, s.Telemetry().Tracer())
	}
	for _, tr := range tracers {
		for _, s := range tr.Spans() {
			if got, ok := want[s.Trace]; ok {
				want[s.Trace] = append(got, s)
			}
		}
	}
	for _, op := range tc.pending {
		tc.totals.addOp(op, want[op.id])
	}
	tc.pending = tc.pending[:0]
}

// addOp splits one op's modeled latency over layers. Data-path spans
// (client.*, index.*, txn.*) run on the client's data clock, so they are
// put under one synthetic root spanning [v0, v1] and the critical path
// partitions that window; concurrent fan-out is charged once. Control
// calls (rpc.call.* roots) run on the control connection's own clock, so
// each is split on its own. Modeled control charges with no span land in
// "unspanned". The parts must sum to the op's measured modeled latency.
func (tt *traceTotals) addOp(op sampledOp, spans []telemetry.Span) {
	byID := make(map[telemetry.SpanID]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	// rootOf follows parent edges to the topmost span present.
	rootOf := func(i int) int {
		for hops := 0; hops < len(spans); hops++ {
			j, ok := byID[spans[i].Parent]
			if !ok || spans[i].Parent == 0 {
				return i
			}
			i = j
		}
		return i
	}
	groups := make(map[int][]telemetry.Span)
	for i := range spans {
		r := rootOf(i)
		groups[r] = append(groups[r], spans[i])
	}
	split := make(map[string]time.Duration)
	var rpcs, commits []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "rpc.call.") {
			rpcs = append(rpcs, us(s.Duration()))
		}
		if s.Name == "txn.commit" {
			commits = append(commits, us(s.Duration()))
		}
	}
	const synthetic = telemetry.SpanID(math.MaxUint64)
	data := []telemetry.Span{{Trace: op.id, ID: synthetic, Name: "client.op", StartV: op.v0, EndV: op.v1}}
	for r, g := range groups {
		if strings.HasPrefix(spans[r].Name, "rpc.call.") {
			for _, lt := range telemetry.CriticalPath(telemetry.Assemble(g)).Layers {
				split[lt.Layer] += lt.Time
			}
			continue
		}
		for _, s := range g {
			if s.ID == spans[r].ID {
				s.Parent = synthetic
			}
			data = append(data, s)
		}
	}
	if op.v1 > op.v0 {
		for _, lt := range telemetry.CriticalPath(telemetry.Assemble(data)).Layers {
			split[lt.Layer] += lt.Time
		}
	}
	split["unspanned"] += op.ctrl.ConnectTime + op.ctrl.RegisterTime

	var sum time.Duration
	for _, d := range split {
		sum += d
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.ops++
	for l, d := range split {
		tt.layers[l] += d
	}
	if sum != op.vlat {
		tt.unsplit++
		if tt.firstBad == "" {
			tt.firstBad = fmt.Sprintf("trace %v: layers sum to %v, op took %v (%d spans)", op.id, sum, op.vlat, len(spans))
		}
	}
	tt.rpcCalls = append(tt.rpcCalls, rpcs...)
	tt.txnCommits = append(tt.txnCommits, commits...)
}

// layerCalls are the benchmark-timed public calls, named as reported.
var layerCalls = []string{
	"client.read", "client.write", "client.alloc", "client.map", "client.free",
	"index.get", "index.put", "index.scan",
}

// quantileOr0 reports a percentile, or 0 when the samples cannot support
// it (none, or a thin tail); the report line says which.
func quantileOr0(name string, samples []float64, q float64) float64 {
	v, err := percentile(samples, q)
	if err != nil {
		fmt.Printf("note %s: %v; reported as 0\n", name, err)
		return 0
	}
	return v
}

// perLayer runs the workload untraced and then traced, each on a fresh
// cluster, and reports the traced run's per-layer split and the tracing
// overhead.
func perLayer(ctx context.Context, w *workload, seed int64, nclients, opsPerClient int) (*result, error) {
	e, st, _, err := bootRamped(ctx, w, seed, nclients)
	if err != nil {
		return nil, err
	}
	base, err := timed(ctx, e, st, opsPerClient, false)
	if err != nil {
		e.cluster.Close()
		return nil, err
	}
	baseFinish := st.finish(ctx)
	e.cluster.Close()
	settle()

	if e, st, _, err = bootRamped(ctx, w, seed, nclients); err != nil {
		return nil, err
	}
	defer e.cluster.Close()
	p, err := timed(ctx, e, st, opsPerClient, true)
	if err != nil {
		return nil, err
	}
	finishErr := st.finish(ctx)
	if finishErr == nil {
		finishErr = baseFinish
	}
	if finishErr == nil && p.traces.unsplit > 0 {
		finishErr = mismatchf("%d of %d sampled ops: critical-path split does not sum to modeled latency; first: %s",
			p.traces.unsplit, p.traces.ops, p.traces.firstBad)
	}
	p.ops += base.ops
	p.failed += base.failed
	p.mismatches += base.mismatches
	if p.mismatch == nil {
		p.mismatch = base.mismatch
	}
	traced := p.ops - base.ops

	ms := newMetrics()
	ops := float64(traced)
	cpuPerOp := per(us(p.cpu), ops)
	att := attribute(p.profile)
	var sampled int64
	for _, v := range att {
		sampled += v
	}
	for _, b := range cpuBuckets {
		ms.set("cpu."+b+"_us_per_op", "us", cpuPerOp*per(float64(att[b]), float64(sampled)))
	}

	c := p.counters
	ms.set("simnet.reservations_per_op", "1/op", per(float64(p.fabric.reservations), ops))
	ms.set("simnet.busy_us_per_op", "us", per(us(p.fabric.busy), ops))
	ms.set("simnet.wire_bytes_per_op", "B/op", per(float64(p.fabric.wireBytes), ops))
	ms.set("rdma.wire_ops_per_op", "1/op", per(float64(c["rdma.ops"]), ops))
	ms.set("rdma.one_sided_per_op", "1/op", per(float64(c["rdma.one_sided"]), ops))
	ms.set("rdma.retransmits_per_op", "1/op", per(float64(c["rdma.retransmits"]), ops))
	ms.set("rpc.calls_per_op", "1/op", per(float64(c["rpc.calls_out"]), ops))
	ms.set("rpc.credit_stalls_per_op", "1/op", per(float64(c["rpc.credit_stalls"]), ops))
	ms.set("rpc.call_vlat_p50_us", "us", quantileOr0("rpc.call_vlat_p50_us", p.traces.rpcCalls, 0.5))
	for _, call := range layerCalls {
		ct := p.calls[call]
		if ct == nil {
			ct = &callTimes{}
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			name := call + "_vlat_" + q.suffix + "_us"
			ms.set(name, "us", quantileOr0(name, ct.vlat, q.q))
			name = call + "_wall_" + q.suffix + "_us"
			ms.set(name, "us", quantileOr0(name, ct.wall, q.q))
		}
	}
	ms.set("client.retries_per_op", "1/op", per(float64(c["client.retries"]), ops))
	ms.set("client.control_vus_per_op", "us", per(us(p.ctrl.Total()), ops))
	ms.set("master.repl_records_per_op", "1/op", per(float64(c["master.repl_records"]), ops))
	ms.set("master.ingress_bytes_per_s", "B/s", per(float64(p.fabric.masterIngress), p.wall.Seconds()))
	commits, aborts := float64(c["txn.commits"]), float64(c["txn.aborts"])
	ms.set("txn.commits_per_op", "1/op", per(commits, ops))
	ms.set("txn.commit_success_ratio", "ratio", per(commits, commits+aborts))
	ms.set("txn.commit_vlat_p50_us", "us", quantileOr0("txn.commit_vlat_p50_us", p.traces.txnCommits, 0.5))
	hits, misses := float64(c["index.cache_hits"]), float64(c["index.cache_misses"])
	ms.set("index.cache_hit_ratio", "ratio", per(hits, hits+misses))
	ms.set("index.wire_reads_per_get", "1/op", per(float64(p.tallies["get_reads"]), float64(p.tallies["gets"])))
	ms.set("index.retraversals_per_op", "1/op", per(float64(c["index.retraversals"]), ops))
	ms.set("index.bloom_shortcuts_per_miss", "1/op", per(float64(c["index.bloom_shortcuts"]), float64(p.tallies["absent_gets"])))
	ms.set("index.splits_per_put", "1/op", per(float64(c["index.splits"]), float64(p.tallies["puts"])))
	for _, l := range vcpLayers {
		ms.set(l.metric, "us", per(us(p.traces.layers[l.layer]), float64(p.traces.ops)))
	}
	ms.set("trace.cpu_us_per_op", "us", cpuPerOp)
	ms.set("trace.untraced_cpu_us_per_op", "us", per(us(base.cpu), float64(base.ops)))
	ms.set("trace.overhead_pct", "%", 100*(per(cpuPerOp, per(us(base.cpu), float64(base.ops)))-1))
	ms.set("trace.sampled_ops", "count", float64(p.traces.ops))
	ms.set("trace.profile_coverage", "ratio", per(float64(sampled), float64(p.cpu)))
	fmt.Printf("check vcp split sums: %d of %d sampled ops exact\n", p.traces.ops-p.traces.unsplit, p.traces.ops)
	return report(ms, p, finishErr), nil
}
