package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/index"
	"rstore/internal/kvstore"
	gen "rstore/internal/workload"
)

// ordered-kv drives kvstore.OrderedStore from two handles. Key index i
// names key k%08d. Preloaded keys have i = 8j, inserted in random order so
// leaves start at mixed fill levels and split at a steady rate rather
// than in one wave. That order is the same in every run (kvTreeSeed): the
// preloaded tree is part of the workload, and the shape of the tree moves
// the per-op cost more than the op stream does, which --seed drives. Keys
// i = 8j+4 are never written, so gets for them must miss; client c alone
// inserts keys i = 8j+1+4c+t, t < 3. Every client's inserts land between
// preloaded keys, so they split leaves all over the tree, and each handle
// must see the other's inserts through routes and blooms it cached before
// them: some gets ask for keys the other client inserted last. No key is
// written by two clients, so the oracle is exact. A run's puts stay below
// the 3 × kvPreload keys each client owns, so every put inserts.

const (
	kvPreload   = 4096 // preloaded keys
	kvScanWidth = 128  // key indices a scan covers: 16 preloaded keys
	kvZipfTheta = 1.2
	kvTreeSeed  = 20150701
)

// kvOptions sizes the tree. The zero Retry policy would give every
// transaction a single attempt, so two writers' conflicting splits would
// surface as failed puts; the policy here is the index tests' own.
var kvOptions = index.Options{
	Nodes: 4096, NodeSize: 512, MaxKey: 32,
	Retry: client.RetryPolicy{MaxAttempts: 64, BaseDelay: 2 * time.Microsecond, MaxDelay: 64 * time.Microsecond,
		Multiplier: 2, Jitter: 0.2, Seed: 1},
}

var orderedKV = &workload{
	name:         "ordered-kv",
	opsPerSecond: 2000,
	warmup:       200,
	cluster:      core.Config{Machines: 5, ServerCapacity: 8 << 20},
	preload:      preloadOrderedKV,
}

func kvKey(i int) []byte { return gen.OrderedKey(i) }

// kvValue is the value client c (or -1 for the preload) writes to key
// index i. Every key is written once.
func kvValue(i, c int) []byte { return []byte(fmt.Sprintf("v%08d/%d", i, c+1)) }

type kvState struct {
	e       *env
	oracle  *kvOracle
	clients []*kvClient
}

type kvClient struct {
	store      *kvstore.OrderedStore
	present    gen.AccessPattern // zipf over preloaded keys
	absent     gen.AccessPattern // zipf over never-written keys
	perm       []int             // order this client inserts its keys in
	puts       int
	readsTotal func() int64
}

// kvRecent is how many of another client's latest inserts a get of its
// keys picks from: the keys most likely to sit behind a stale cached
// route or bloom filter.
const kvRecent = 64

// kvOracle is what the store must hold. One op runs at a time (runOps),
// so every insert has returned before the next op starts.
type kvOracle struct {
	done     map[string][]byte // preloaded keys and inserts that returned
	inserted [][]int           // key indices of each client's inserts, in order
}

func newKVOracle(clients int) *kvOracle {
	return &kvOracle{done: make(map[string][]byte), inserted: make([][]int, clients)}
}

// commit records that client c's insert of key index i returned.
func (o *kvOracle) commit(i, c int) {
	o.done[string(kvKey(i))] = kvValue(i, c)
	o.inserted[c] = append(o.inserted[c], i)
}

// span returns the keys with indices in [lo, hi) that the store must
// hold, with their values.
func (o *kvOracle) span(lo, hi int) map[string][]byte {
	must := make(map[string][]byte)
	for i := lo; i < hi; i++ {
		k := string(kvKey(i))
		if v, ok := o.done[k]; ok {
			must[k] = v
		}
	}
	return must
}

// recent returns one of client c's last kvRecent returned inserts, drawn
// from rng, or false when c has inserted nothing yet.
func (o *kvOracle) recent(c int, rng *rand.Rand) (int, bool) {
	ins := o.inserted[c]
	if len(ins) == 0 {
		return 0, false
	}
	return ins[len(ins)-1-rng.Intn(min(len(ins), kvRecent))], true
}

const kvStoreName = "okv"

func preloadOrderedKV(ctx context.Context, e *env, seed int64) (state, error) {
	st := &kvState{e: e, oracle: newKVOracle(len(e.loads))}
	store, err := kvstore.CreateOrdered(ctx, e.admin, kvStoreName, kvOptions)
	if err != nil {
		return nil, err
	}
	for _, j := range rand.New(rand.NewSource(kvTreeSeed)).Perm(kvPreload) {
		k, v := kvKey(8*j), kvValue(8*j, -1)
		if err := store.Put(ctx, k, v); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", j, err)
		}
		st.oracle.done[string(k)] = v
	}
	if ts, err := store.Tree().Stats(ctx); err == nil {
		fmt.Printf("info tree after preload: height %d, %d nodes, %d keys\n", ts.Height, ts.Nodes, kvPreload)
	}
	if err := store.Close(ctx); err != nil {
		return nil, err
	}
	for _, lc := range e.loads {
		kc := &kvClient{}
		if kc.store, err = kvstore.OpenOrdered(ctx, lc.cli, kvStoreName, kvOptions); err != nil {
			return nil, err
		}
		zseed := seed*31 + int64(lc.id)
		if kc.present, err = gen.NewZipfian(kvPreload*8, 8, kvZipfTheta, zseed); err != nil {
			return nil, err
		}
		if kc.absent, err = gen.NewZipfian(kvPreload*8, 8, kvZipfTheta, zseed+1000); err != nil {
			return nil, err
		}
		kc.perm = lc.rng.Perm(3 * kvPreload)
		reads := lc.cli.Telemetry().Counter("client.reads")
		kc.readsTotal = reads.Value
		st.clients = append(st.clients, kc)
	}
	return st, nil
}

// ownKey is client c's k-th key index, k < 3 × kvPreload.
func ownKey(c, k int) int { return 8*(k/3) + 1 + 4*c + k%3 }

func (st *kvState) op(ctx context.Context, lc *loadClient) error {
	kc := st.clients[lc.id]
	r := lc.rng.Float64()
	switch {
	case r < 0.70: // gets: preloaded keys, the other client's latest inserts, absent keys
		// With one client, "the other" is the client itself.
		absent := r >= 0.35
		i, other := 0, false
		if r >= 0.25 && !absent {
			i, other = st.oracle.recent((lc.id+1)%len(st.clients), lc.rng)
		}
		switch {
		case absent:
			i = 8*int(kc.absent.Next()/8) + 4
		case !other:
			i = 8 * int(kc.present.Next()/8)
		}
		key := kvKey(i)
		var want []byte
		if !absent {
			want = st.oracle.span(i, i+1)[string(key)]
		}
		var got []byte
		var gerr error
		r0 := kc.readsTotal()
		err := lc.measure("index.get", func() error {
			got, gerr = kc.store.Get(ctx, key)
			if gerr != nil && !errors.Is(gerr, index.ErrNotFound) {
				return gerr
			}
			return nil
		})
		if err != nil {
			return err
		}
		lc.tallies["gets"]++
		lc.tallies["get_reads"] += kc.readsTotal() - r0
		if absent {
			lc.tallies["absent_gets"]++
		}
		return checkGet(key, got, gerr, want)
	case r < 0.90:
		if kc.puts == len(kc.perm) {
			return fmt.Errorf("client %d has inserted all %d of its keys", lc.id, len(kc.perm))
		}
		i := ownKey(lc.id, kc.perm[kc.puts])
		key, val := kvKey(i), kvValue(i, lc.id)
		if err := lc.measure("index.put", func() error { return kc.store.Put(ctx, key, val) }); err != nil {
			return err
		}
		st.oracle.commit(i, lc.id)
		kc.puts++
		lc.tallies["puts"]++
		return nil
	default:
		lo := 8 * lc.rng.Intn(kvPreload)
		start, end := kvKey(lo), kvKey(lo+kvScanWidth)
		must := st.oracle.span(lo, lo+kvScanWidth)
		var ents []index.Entry
		if err := lc.measure("index.scan", func() (err error) {
			ents, err = kc.store.Scan(ctx, start, end)
			return err
		}); err != nil {
			return err
		}
		return checkScan(ents, start, end, must)
	}
}

// finish scans the whole keyspace and compares it with the oracle.
func (st *kvState) finish(ctx context.Context) error {
	store, err := kvstore.OpenOrdered(ctx, st.e.admin, kvStoreName, kvOptions)
	if err != nil {
		return err
	}
	defer store.Close(ctx)
	ents, err := store.Scan(ctx, kvKey(0), nil)
	if err != nil {
		return err
	}
	return checkScan(ents, kvKey(0), nil, st.oracle.done)
}
