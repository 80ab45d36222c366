// Command perfbench runs one named RStore workload against an in-process
// core.Cluster and prints its metrics. It does a fixed amount of work, so
// counts and modeled figures repeat from run to run.
//
//	go run . --workload small-io --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the same work twice in one process, untraced and then traced (CPU
// profile plus 1-in-N span sampling), and prints the per-layer metrics
// with the tracing overhead. --setup-only boots, preloads and warms up
// once and prints how long that took; a --trace 0 run starts itself so to
// time set-ups in fresh processes. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// setupRuns is how many set-ups a --trace 0 run times; setup_s is the
// median. The first is the run's own. The others follow the timed phase,
// each in a fresh process of this command (--setup-only), so every one
// is the first boot of a process, as a user's is. A second cluster in one
// process is slower and less steady: it re-zeroes the first one's freed
// heap, where a fresh process gets untouched pages.
const setupRuns = 5

// rounds splits the timed phase into equal slices. On a shared machine
// the host's speed shifts every few seconds, and other tenants' bursts
// slow the process's wall clock and its CPU alike, so whole-phase figures
// follow them. ops_per_s, cpu_us_per_op, the allocations per op and the
// resident set are medians over the slices. The report's trend lines show
// state that builds up as the run goes on.
const rounds = 100

// traceSampling is the tracer's 1-in-N root sampling rate in traced runs.
// The benchmark's per-op decision and the client's own per-call ones
// draw from one sequence, so N is prime: an even N would always land on
// the same one of a 4 KiB op's two draws.
const traceSampling = 31

// workload is one traffic mix.
type workload struct {
	name string
	// opsPerSecond fixes the work: a run does opsPerSecond × --seconds
	// ops, split evenly over the clients, whatever the machine's speed.
	opsPerSecond int
	// warmup is how many ops each client runs, untimed, after preload.
	warmup int
	// ramp is how many more ops each client runs after set-up, neither
	// timed nor part of setup_s, so the timed phase starts where the
	// simulator's per-op cost has stopped growing. The fabric's lines
	// remember free gaps up to a bound, and every reservation scans them,
	// so CPU per op climbs with the ops a cluster has run until the lists
	// are full; where the timed phase sat on that climb followed the
	// machine's load, and ops_per_s spread past its bound.
	ramp    int
	cluster core.Config
	// preload fills the working set and returns the workload's state.
	preload func(ctx context.Context, e *env, seed int64) (state, error)
}

// state is a preloaded workload.
type state interface {
	// op runs one logical operation for lc. It returns a *mismatch when
	// the program's answer is wrong, another error when the op failed.
	op(ctx context.Context, lc *loadClient) error
	// finish runs the end-of-run correctness checks.
	finish(ctx context.Context) error
}

var workloads = []*workload{smallIO, bulkIO, orderedKV, controlChurn}

// env is one booted cluster with its clients. Every load client sits on a
// client-only node, so no data op is loopback; admin, on its own node,
// preloads and inspects.
type env struct {
	cluster *core.Cluster
	admin   *client.Client
	loads   []*loadClient
	params  simnet.Params
}

// callTimes holds one benchmark-timed public call's samples, in µs.
type callTimes struct{ vlat, wall []float64 }

// loadClient is one load goroutine's client and its tallies.
type loadClient struct {
	id    int
	cli   *client.Client
	rng   *rand.Rand
	e     *env
	calls map[string]*callTimes
	// tallies are workload-specific counts, such as gets and the wire
	// reads they took.
	tallies map[string]int64

	ops, failed, mismatches int
	firstFail, mismatch     error
	lat                     []float64     // modeled latency per completed op, µs
	vspan                   time.Duration // summed modeled latency of completed ops

	trace *traceCollector // nil when untraced
}

// measure runs one public call and records its wall time and its modeled
// time: the client's virtual-time advance plus its modeled control cost.
func (lc *loadClient) measure(name string, fn func() error) error {
	v0, c0, t0 := lc.cli.VNow(), lc.cli.ControlStats().Total(), time.Now()
	err := fn()
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	v := lc.cli.VNow().Sub(v0) + lc.cli.ControlStats().Total() - c0
	ct := lc.calls[name]
	if ct == nil {
		ct = &callTimes{}
		lc.calls[name] = ct
	}
	ct.vlat = append(ct.vlat, us(v))
	ct.wall = append(ct.wall, us(wall))
	return nil
}

// runOne runs and accounts one logical op.
func (lc *loadClient) runOne(ctx context.Context, st state) {
	var id telemetry.TraceID
	if lc.trace != nil {
		if tid, ok := lc.cli.Telemetry().Tracer().NewTrace(); ok {
			id = tid
			ctx = telemetry.WithTrace(ctx, id)
		}
	}
	v0, c0 := lc.cli.VNow(), lc.cli.ControlStats()
	err := st.op(ctx, lc)
	lc.ops++
	if err != nil {
		if isMismatch(err) {
			lc.mismatches++
			if lc.mismatch == nil {
				lc.mismatch = err
			}
			return
		}
		lc.failed++
		if lc.firstFail == nil {
			lc.firstFail = err
		}
		return
	}
	v1, c1 := lc.cli.VNow(), lc.cli.ControlStats()
	vlat := v1.Sub(v0) + c1.Total() - c0.Total()
	lc.lat = append(lc.lat, us(vlat))
	lc.vspan += vlat
	if id != 0 {
		lc.trace.add(sampledOp{id: id, v0: v0, v1: v1, ctrl: c1.Sub(c0), vlat: vlat})
	}
}

// resetTallies clears everything a timed phase reports.
func (lc *loadClient) resetTallies() {
	lc.calls = make(map[string]*callTimes)
	lc.tallies = make(map[string]int64)
	lc.ops, lc.failed, lc.mismatches, lc.firstFail, lc.mismatch, lc.lat, lc.vspan = 0, 0, 0, nil, nil, nil, 0
}

// runOps runs n ops on every load client from one goroutine. Each step
// runs one op of the client whose virtual clock is earliest, so the
// clients' ops interleave in modeled time as independent clients' would,
// and they contend for the fabric's lines in modeled time, but no two ops
// run at once in real time. Every client posts at its own virtual clock:
// goroutines running freely would let the one the scheduler favours drift
// milliseconds ahead in modeled time, and how much the clients contend on
// the fabric, and how many free gaps each fabric line must search, would
// follow the scheduler rather than the inputs.
func runOps(ctx context.Context, st state, loads []*loadClient, n int) {
	left := make([]int, len(loads))
	for i := range left {
		left[i] = n
	}
	now := func(i int) simnet.VTime { return loads[i].cli.VNow() }
	for next := earliest(now, left); next >= 0; next = earliest(now, left) {
		loads[next].runOne(ctx, st)
		left[next]--
	}
	for _, lc := range loads {
		if lc.trace != nil {
			lc.trace.flush()
		}
	}
}

// earliest returns the client with ops left whose virtual clock is
// earliest, the lowest index on a tie, or -1 when no client has ops left.
func earliest(now func(i int) simnet.VTime, left []int) int {
	next := -1
	for i, n := range left {
		if n > 0 && (next < 0 || now(i) < now(next)) {
			next = i
		}
	}
	return next
}

// boot starts a cluster, connects the clients, preloads the working set
// and runs the warm-up.
func boot(ctx context.Context, w *workload, seed int64, nclients int) (*env, state, error) {
	cfg := w.cluster
	cfg.ExtraClientNodes = nclients + 1
	c, err := core.Start(ctx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	e := &env{cluster: c, params: c.Fabric().Params()}
	first := simnet.NodeID(cfg.Machines)
	if e.admin, err = c.NewClient(ctx, first); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("admin client: %w", err)
	}
	for i := 0; i < nclients; i++ {
		cli, err := c.NewClient(ctx, first+1+simnet.NodeID(i))
		if err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("load client %d: %w", i, err)
		}
		e.loads = append(e.loads, &loadClient{
			id: i, cli: cli, e: e,
			rng:     rand.New(rand.NewSource(seed*7919 + int64(i))),
			calls:   make(map[string]*callTimes),
			tallies: make(map[string]int64),
		})
	}
	st, err := w.preload(ctx, e, seed)
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	if err := untimed(ctx, st, e.loads, w.warmup, "warm-up"); err != nil {
		c.Close()
		return nil, nil, err
	}
	return e, st, nil
}

// untimed runs n ops on every load client, stops at the first failed or
// wrong one, and clears the tallies.
func untimed(ctx context.Context, st state, loads []*loadClient, n int, what string) error {
	runOps(ctx, st, loads, n)
	for _, lc := range loads {
		if err := firstProblem(lc); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		lc.resetTallies()
	}
	return nil
}

// bootRamped boots the cluster and runs the workload's ramp.
func bootRamped(ctx context.Context, w *workload, seed int64, nclients int) (*env, state, float64, error) {
	t0 := time.Now()
	e, st, err := boot(ctx, w, seed, nclients)
	if err != nil {
		return nil, nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	t1 := time.Now()
	if err := untimed(ctx, st, e.loads, w.ramp, "ramp"); err != nil {
		e.cluster.Close()
		return nil, nil, 0, err
	}
	fmt.Printf("info ramp %d ops in %.3f s\n", w.ramp*len(e.loads), time.Since(t1).Seconds())
	return e, st, setup, nil
}

func firstProblem(lc *loadClient) error {
	if lc.mismatch != nil {
		return lc.mismatch
	}
	return lc.firstFail
}

// fabricTotals sums the fabric's per-line accounting.
type fabricTotals struct {
	reservations, wireBytes, masterIngress int64
	busy                                   time.Duration
}

func readFabric(e *env) fabricTotals {
	masters := make(map[simnet.NodeID]bool)
	for _, n := range e.cluster.MasterNodes() {
		masters[n] = true
	}
	var t fabricTotals
	for _, s := range e.cluster.Fabric().Stats() {
		t.reservations += s.Egress.Ops + s.Ingress.Ops
		t.busy += time.Duration(s.Egress.Busy + s.Ingress.Busy)
		t.wireBytes += s.Egress.Bytes
		if masters[s.Node] {
			t.masterIngress += s.Ingress.Bytes
		}
	}
	return t
}

// phase is what one timed phase measured.
type phase struct {
	ops, failed, mismatches int
	firstFail, mismatch     error
	wall                    time.Duration
	rate                    float64 // median of the rounds' ops per second
	cpuPer                  float64 // median of the rounds' CPU µs per op
	allocsPer, bytesPer     float64 // medians of the rounds' allocations per op
	rssMB                   float64 // median resident set sampled between rounds, MiB
	cpu                     time.Duration
	lat                     []float64
	vspan                   time.Duration // longest client's summed modeled latency
	calls                   map[string]*callTimes
	counters                map[string]int64 // telemetry counter deltas
	tallies                 map[string]int64
	ctrl                    client.ControlStats
	fabric                  fabricTotals
	profile                 []stackSample
	traces                  *traceTotals
}

// timed runs the measured phase: GC first, then opsPerClient ops on every
// client, with counters, CPU and allocations read around it.
func timed(ctx context.Context, e *env, st state, opsPerClient int, traced bool) (*phase, error) {
	var tt *traceTotals
	if traced {
		tt = newTraceTotals()
		for _, lc := range e.loads {
			lc.trace = &traceCollector{lc: lc, totals: tt}
			lc.cli.Telemetry().Tracer().SetSampling(traceSampling)
		}
	}
	runtime.GC()
	tel0, fab0 := e.cluster.TelemetrySnapshot(), readFabric(e)
	var ctrl0 client.ControlStats
	for _, lc := range e.loads {
		ctrl0 = addCtrl(ctrl0, lc.cli.ControlStats())
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var roundRates, roundCPU, roundAllocs, roundBytes []float64
	n := float64(opsPerClient / rounds * len(e.loads))
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rss0, err := residentSet()
	if err != nil {
		return nil, err
	}
	roundRSS := []float64{float64(rss0) / (1 << 20)}
	cpu0, t0 := cpuTime(), time.Now()
	for r := 0; r < rounds; r++ {
		rtmetrics.Read(allocs)
		a0, b0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
		rc, rt := cpuTime(), time.Now()
		runOps(ctx, st, e.loads, opsPerClient/rounds)
		roundRates = append(roundRates, n/time.Since(rt).Seconds())
		roundCPU = append(roundCPU, us(cpuTime()-rc)/n)
		rtmetrics.Read(allocs)
		roundAllocs = append(roundAllocs, float64(allocs[0].Value.Uint64()-a0)/n)
		roundBytes = append(roundBytes, float64(allocs[1].Value.Uint64()-b0)/n)
		if b, err := residentSet(); err == nil {
			roundRSS = append(roundRSS, float64(b)/(1<<20))
		}
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	fmt.Printf("trend cpu_us_per_op by round: %.1f\n", roundCPU)
	fmt.Printf("trend ops_per_s by round: %.0f\n", roundRates)
	fmt.Printf("trend alloc_bytes_per_op by round: %.0f\n", roundBytes)
	fmt.Printf("trend rss_mb by round: %.1f\n", roundRSS)
	if traced {
		pprof.StopCPUProfile()
		for _, lc := range e.loads {
			lc.cli.Telemetry().Tracer().SetSampling(0)
		}
	}
	p := &phase{
		wall: wall, cpu: cpu, rssMB: median(roundRSS), rate: median(roundRates), cpuPer: median(roundCPU),
		allocsPer: median(roundAllocs), bytesPer: median(roundBytes),
		calls:    make(map[string]*callTimes),
		counters: make(map[string]int64),
		tallies:  make(map[string]int64),
		traces:   tt,
	}
	tel1, fab1 := e.cluster.TelemetrySnapshot(), readFabric(e)
	for name, v := range tel1.Counters {
		p.counters[name] = v - tel0.Counters[name]
	}
	p.fabric = fabricTotals{
		reservations:  fab1.reservations - fab0.reservations,
		wireBytes:     fab1.wireBytes - fab0.wireBytes,
		masterIngress: fab1.masterIngress - fab0.masterIngress,
		busy:          fab1.busy - fab0.busy,
	}
	var ctrl1 client.ControlStats
	for _, lc := range e.loads {
		ctrl1 = addCtrl(ctrl1, lc.cli.ControlStats())
		p.ops += lc.ops
		p.failed += lc.failed
		p.mismatches += lc.mismatches
		if p.mismatch == nil {
			p.mismatch = lc.mismatch
		}
		if p.firstFail == nil {
			p.firstFail = lc.firstFail
		}
		p.lat = append(p.lat, lc.lat...)
		if lc.vspan > p.vspan {
			p.vspan = lc.vspan
		}
		for name, n := range lc.tallies {
			p.tallies[name] += n
		}
		for name, ct := range lc.calls {
			all := p.calls[name]
			if all == nil {
				all = &callTimes{}
				p.calls[name] = all
			}
			all.vlat = append(all.vlat, ct.vlat...)
			all.wall = append(all.wall, ct.wall...)
		}
	}
	p.ctrl = ctrl1.Sub(ctrl0)
	if traced {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		p.profile = samples
	}
	return p, nil
}

func addCtrl(a, b client.ControlStats) client.ControlStats {
	return client.ControlStats{
		RPCTime: a.RPCTime + b.RPCTime, ConnectTime: a.ConnectTime + b.ConnectTime,
		RegisterTime: a.RegisterTime + b.RegisterTime,
		RPCs:         a.RPCs + b.RPCs, Connects: a.Connects + b.Connects, Registers: a.Registers + b.Registers,
	}
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: small-io, bulk-io, ordered-kv or control-churn")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "run length: the op count is the workload's ops per second times this")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		setup   = flag.Bool("setup-only", false, "boot, preload and warm up once, print the set-up seconds and exit")
	)
	flag.Parse()
	var w *workload
	for _, x := range workloads {
		if x.name == *name {
			w = x
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, x := range workloads {
			names[i] = x.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	nclients := runtime.NumCPU()
	if nclients > 2 {
		nclients = 2
	}
	// The load clients and the cluster's goroutines share one P. With a P
	// per vCPU on a shared 2-vCPU machine, each hand-off between a client,
	// server and master goroutine could wake another CPU, the wake-ups
	// followed the other tenants' load, and ops_per_s spread 15% between
	// runs of the same code while CPU per op held within 3%. With one P
	// the hand-offs are goroutine switches and the rate follows the CPU
	// the process does.
	runtime.GOMAXPROCS(1)
	// The RPC layer's registered buffers make the live heap large but
	// mostly untouched, and the default GOGC lets garbage grow by as much
	// again before a collection, so a timed phase saw one collection or
	// two, and the resident set followed where the first one fell: 158 or
	// 206 MiB at its peak on ordered-kv with one P. At 50 a phase sees
	// several, and the peak held within 2%.
	debug.SetGCPercent(50)
	ctx := context.Background()
	if *setup {
		s, err := timeSetup(ctx, w, *seed, nclients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Printf("%.9f\n", s)
		return 0
	}
	opsPerClient := w.opsPerSecond * *seconds / nclients / rounds * rounds
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d clients=%d ops=%d %s\n",
		w.name, *seed, *seconds, *trace, nclients, opsPerClient*nclients, machineStamp())

	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(ctx, w, *seed, nclients, opsPerClient)
	} else {
		res, err = perLayer(ctx, w, *seed, nclients, opsPerClient)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// settle releases a closed cluster's memory before the next one boots in
// the same process, so the resident set reflects one cluster, not two.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timeSetup boots, preloads and warms up one cluster and returns how long
// that took.
func timeSetup(ctx context.Context, w *workload, seed int64, nclients int) (float64, error) {
	t0 := time.Now()
	e, _, err := boot(ctx, w, seed, nclients)
	if err != nil {
		return 0, err
	}
	s := time.Since(t0).Seconds()
	e.cluster.Close()
	return s, nil
}

// setupInChild times one set-up in a fresh process of this command and
// waits for the process to end. The child dies with this process.
func setupInChild(w *workload, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a fresh process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	s, err := strconv.ParseFloat(lines[len(lines)-1], 64)
	if err != nil {
		return 0, fmt.Errorf("set-up in a fresh process printed %q: %w", out, err)
	}
	return s, nil
}

func endToEnd(ctx context.Context, w *workload, seed int64, nclients, opsPerClient int) (*result, error) {
	e, st, setup, err := bootRamped(ctx, w, seed, nclients)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}
	p, err := timed(ctx, e, st, opsPerClient, false)
	if err != nil {
		e.cluster.Close()
		return nil, err
	}
	finishErr := st.finish(ctx)
	e.cluster.Close()
	for len(setups) < setupRuns {
		s, err := setupInChild(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	fmt.Printf("info set-ups %.3f s\n", setups)
	ms := newMetrics()
	done := float64(len(p.lat))
	ms.set("ops_per_s", "ops/s", p.rate)
	ms.set("cpu_us_per_op", "us", p.cpuPer)
	ms.set("allocs_per_op", "allocs/op", p.allocsPer)
	ms.set("alloc_bytes_per_op", "B/op", p.bytesPer)
	ms.set("rss_mb", "MiB", p.rssMB)
	ms.set("setup_s", "s", median(setups))
	tail, err := tailMean(p.lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("vlat_tail_us: %w", err)
	}
	ms.set("vlat_mean_us", "us", mean(p.lat))
	ms.set("vlat_tail_us", "us", tail)
	ms.set("vops_per_s", "ops/s", per(done, p.vspan.Seconds()))
	// Modeled latency takes few distinct values (an uncontended 4 KiB read
	// costs the same 2.643 µs in every run), so its percentiles sit on
	// those values and repeat exactly from run to run: a bound on them
	// can never move. They are printed; the reported figures are the mean
	// and the mean of the slowest 1%, which follow the whole distribution.
	for _, q := range []float64{0.5, 0.99} {
		if v, err := percentile(p.lat, q); err == nil {
			fmt.Printf("info vlat_p%g_us %.3f us\n", 100*q, v)
		}
	}
	return report(ms, p, finishErr), nil
}

// report prints the human-readable lines and builds the result.
func report(ms *metrics, p *phase, finishErr error) *result {
	for _, name := range ms.order {
		m := ms.m[name]
		fmt.Printf("metric %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("ops attempted=%d failed=%d mismatched=%d samples=%d\n", p.ops, p.failed, p.mismatches, len(p.lat))
	if p.firstFail != nil {
		fmt.Printf("first failed op: %v\n", p.firstFail)
	}
	correct := p.mismatches == 0 && finishErr == nil
	if p.mismatch != nil {
		fmt.Printf("check ops: FAIL: %v\n", p.mismatch)
	} else {
		fmt.Printf("check ops: ok\n")
	}
	if finishErr != nil {
		fmt.Printf("check end-of-run: FAIL: %v\n", finishErr)
	} else {
		fmt.Printf("check end-of-run: ok\n")
	}
	return &result{Correct: correct, Attempted: p.ops, Failed: p.failed, Metrics: ms.m}
}
