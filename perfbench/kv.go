package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/shard"
	"newtop/internal/transport/memnet"
)

// kv-read-mostly: the replicated key-value shape. A sharded binding over
// 2 shard groups of 3 shard.Store replicas with read leases on; two
// closed-loop clients send 90% leased gets and 10% Majority puts over
// their own seeded keys, so read-your-writes is checkable per client.
// Reads skip ordering: they exercise the lease check, the session floor,
// replica rotation, the ORB point-to-point call and shard routing.

const (
	kvShards      = 2
	kvReplicas    = 3
	kvClients     = 2
	kvKeys        = 128 // per client
	kvWriteEvery  = 10  // one op in ten is a put
	kvLeaseTicks  = 50
	kvReadRenew   = 50 * time.Millisecond
	kvMaxSettling = 20 * time.Second
)

func kvTimers() gcs.GroupConfig {
	t := steadyTimers()
	t.LeaseTicks = kvLeaseTicks
	return t
}

// storeServant wraps Store.Handle: the first 8 bytes of args carry the
// benchmark's request ID, the rest is the Store's own argument.
func storeServant(st *shard.Store, tr *tracer, proc string) core.Handler {
	return func(method string, args []byte) ([]byte, error) {
		if len(args) < 8 {
			return nil, fmt.Errorf("servant %s: short args (%d bytes)", proc, len(args))
		}
		id := binary.BigEndian.Uint64(args)
		traced := tr.sampled(id)
		var t0 int64
		if traced {
			t0 = tr.now()
		}
		out, err := st.Handle(method, args[8:])
		if traced {
			tr.add(span{Name: "servant", ID: id, Proc: proc, Start: t0, End: tr.now()})
		}
		return out, err
	}
}

type kvWorld struct {
	net      *memnet.Net
	svcs     []*core.Service
	srvs     []*core.Server
	stores   map[string][]*shard.Store
	specs    []core.ShardSpec
	clients  []*core.Service
	bindings []*core.ShardedBinding
	// keys[c] are client c's keys; expect[c] their last written values.
	keys   [][]string
	expect []map[string]string
}

func (w *kvWorld) close() {
	for _, b := range w.bindings {
		_ = b.Close()
	}
	for _, c := range w.clients {
		_ = c.Close()
	}
	for _, s := range w.svcs {
		_ = s.Close()
	}
}

func (w *kvWorld) gcsStats() gcs.Stats {
	var st gcs.Stats
	for _, s := range w.srvs {
		st = st.Plus(s.Stats())
	}
	for _, sb := range w.bindings {
		for _, name := range sb.Shards() {
			st = st.Plus(sb.Shard(name).Group().Stats())
		}
	}
	return st
}

func setupKV(ctx context.Context, seed int64, tr *tracer, eps *endpoints) (*kvWorld, error) {
	w := &kvWorld{
		net:    memnet.New(netsim.New(netsim.FastProfile(), seed)),
		stores: map[string][]*shard.Store{},
	}
	fail := func(err error) (*kvWorld, error) {
		w.close()
		return nil, err
	}
	for s := 0; s < kvShards; s++ {
		name := fmt.Sprintf("kv/s%d", s)
		var contact ids.ProcessID
		var srvs []*core.Server
		for r := 0; r < kvReplicas; r++ {
			id := ids.ProcessID(fmt.Sprintf("%s-r%d", name, r))
			ep, err := w.net.Endpoint(id, netsim.SiteLAN)
			if err != nil {
				return fail(err)
			}
			svc := core.NewService(eps.wrap(tr, ep))
			w.svcs = append(w.svcs, svc)
			st := shard.NewStore(name)
			w.stores[name] = append(w.stores[name], st)
			srv, err := svc.Serve(ctx, core.ServeConfig{
				Group:   ids.GroupID(name),
				Contact: contact,
				Handler: storeServant(st, tr, string(id)),
				GCS:     kvTimers(),
			})
			if err != nil {
				return fail(fmt.Errorf("serve %s: %w", id, err))
			}
			srvs = append(srvs, srv)
			if r == 0 {
				contact = id
			}
		}
		if err := waitRoster(ctx, srvs, kvReplicas); err != nil {
			return fail(err)
		}
		w.srvs = append(w.srvs, srvs...)
		w.specs = append(w.specs, core.ShardSpec{Name: name, Group: ids.GroupID(name), Contact: contact})
	}

	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < kvClients; c++ {
		ep, err := w.net.Endpoint(ids.ProcessID(fmt.Sprintf("kc%02d", c)), netsim.SiteLAN)
		if err != nil {
			return fail(err)
		}
		svc := core.NewService(eps.wrap(tr, ep))
		w.clients = append(w.clients, svc)
		sb, err := svc.BindSharded(ctx, core.ShardConfig{
			Shards:   w.specs,
			RingSeed: uint64(seed),
			Bind: core.BindConfig{
				Style:      core.Open,
				Restricted: true,
				GCS:        steadyTimers(),
				ReadRenew:  kvReadRenew,
			},
		})
		if err != nil {
			return fail(fmt.Errorf("bind client %d: %w", c, err))
		}
		w.bindings = append(w.bindings, sb)
		keys := make([]string, kvKeys)
		for k := range keys {
			keys[k] = fmt.Sprintf("c%d/%08x", c, rng.Uint32())
		}
		w.keys = append(w.keys, keys)
		w.expect = append(w.expect, map[string]string{})
	}

	// Warm-up: every client writes each of its keys once and reads it
	// back, so every get of the timed phase has a known expected value.
	for c, sb := range w.bindings {
		for k, key := range w.keys[c] {
			id := uint64(c+1)<<40 | uint64(k)
			if err := kvPut(ctx, sb, id, key, w.expect[c]); err != nil {
				return fail(fmt.Errorf("warm-up put: %w", err))
			}
			if err := kvGet(ctx, sb, id, key, w.expect[c]); err != nil {
				return fail(fmt.Errorf("warm-up get: %w", err))
			}
		}
	}
	return w, nil
}

// kvPut writes key=v<id> with a Majority acknowledgement and records the
// value as the key's expected one.
func kvPut(ctx context.Context, sb *core.ShardedBinding, id uint64, key string, expect map[string]string) error {
	val := fmt.Sprintf("v%x", id)
	args := append(reqArgs(id), key+"="+val...)
	replies, err := sb.Call(ctx, "put", args, core.WithKey(key), core.WithMode(core.Majority))
	if err != nil {
		delete(expect, key)
		return err
	}
	if len(replies) < 2 {
		delete(expect, key)
		return fmt.Errorf("put %s: %d replies, Majority needs 2", key, len(replies))
	}
	for _, r := range replies {
		if r.Err != nil || string(r.Payload) != "ok" {
			delete(expect, key)
			return fmt.Errorf("put %s at %s: %q %v", key, r.Server, r.Payload, r.Err)
		}
	}
	expect[key] = val
	return nil
}

// kvGet reads key through a leased read and checks read-your-writes: the
// value must be the client's own last write.
func kvGet(ctx context.Context, sb *core.ShardedBinding, id uint64, key string, expect map[string]string) error {
	args := append(reqArgs(id), key...)
	v, err := sb.Read(ctx, "get", args, core.WithKey(key))
	if err != nil {
		return err
	}
	if want, ok := expect[key]; ok && string(v) != want {
		return fmt.Errorf("get %s = %q, own last write was %q", key, v, want)
	}
	return nil
}

func runKVReadMostly(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var eps endpoints
	w, err := setUp(cfg, out, tr, func(seed int64) (*kvWorld, error) {
		return setupKV(ctx, seed, tr, &eps)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()

	stBefore := w.gcsStats()
	sendBefore := eps.totals()

	type clientResult struct {
		reads, writes     []sample
		attempted, failed int
		firstErr          error
		perKey            map[string]int
	}
	results := make([]clientResult, len(w.bindings))
	var wg sync.WaitGroup
	ph := startPhase(cfg.seconds)
	for c, sb := range w.bindings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			r.perKey = map[string]int{}
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
			keys, expect := w.keys[c], w.expect[c]
			proc := fmt.Sprintf("kc%02d", c)
			for seq := uint64(kvKeys); ph.running(); seq++ {
				id := uint64(c+1)<<40 | seq
				key := keys[rng.Intn(len(keys))]
				write := rng.Intn(kvWriteEvery) == 0
				traced := tr.sampled(id)
				var s0 int64
				if traced {
					s0 = tr.now()
				}
				if tr != nil {
					r.perKey[key]++
				}
				t0 := time.Now()
				var err error
				if write {
					err = kvPut(ctx, sb, id, key, expect)
				} else {
					err = kvGet(ctx, sb, id, key, expect)
				}
				done := time.Now()
				if traced {
					s := span{Name: "read", ID: id, Proc: proc, Start: s0, End: tr.now()}
					if write {
						s.Name, s.Need = "put", 2
					}
					tr.add(s)
				}
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				s := sample{at: done.Sub(ph.start), lat: done.Sub(t0)}
				if write {
					r.writes = append(r.writes, s)
				} else {
					r.reads = append(r.reads, s)
				}
			}
		}()
	}
	wg.Wait()
	ph.finish(out)

	var firstErr error
	perShard := map[string]int{}
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		out.writes = append(out.writes, r.writes...)
		out.reads = append(out.reads, r.reads...)
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	out.ops = len(out.writes) + len(out.reads)
	if out.ops == 0 {
		return nil, errNoOps
	}
	out.check("ops-succeed-read-your-writes", out.failed == 0, "%d of %d ops failed (first: %v)", out.failed, out.attempted, firstErr)
	err = w.converged(ctx)
	out.check("shard-replicas-identical", err == nil, "%d shards x %d replicas: %v", kvShards, kvReplicas, errText(err))

	if tr != nil {
		layers := map[string]float64{}
		spans := tr.snapshot()
		invocationLayers(layers, joinSpans(spans, "servant", "put"), kvReplicas)
		var serve []time.Duration
		for _, j := range joinSpans(spans, "servant", "read") {
			if j.op.Name != "" && len(j.children) > 0 {
				serve = append(serve, time.Duration(j.children[0].Start-j.op.Start))
			}
		}
		layers["core.read_serve_us"] = us(median(serve))
		layers["servant.exec_us"] = servantExec(spans)
		ring := w.bindings[0].Ring()
		total := 0
		for _, r := range results {
			for key, n := range r.perKey {
				perShard[ring.Owner(key)] += n
				total += n
			}
		}
		busiest := 0
		for _, n := range perShard {
			busiest = max(busiest, n)
		}
		if total > 0 {
			layers["shard.hot_share"] = float64(busiest) / float64(total)
		}
		gcsLayers(layers, stBefore, w.gcsStats(), out.ops)
		sent := eps.totals().minus(sendBefore)
		transportLayers(layers, sent, out.ops)
		out.layers = layers
		out.counters = sent.counters()
	}
	return out, nil
}

// storeContents decodes a replica's Store.Snapshot (its pair order is
// map order, so snapshots compare as maps, not bytes).
func storeContents(st *shard.Store) (map[string]string, error) {
	b, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	return shard.DecodePairs(b)
}

// converged waits until the replicas of each shard hold identical
// snapshots, then checks every client's last write is what they hold.
func (w *kvWorld) converged(ctx context.Context) error {
	deadline := time.Now().Add(kvMaxSettling)
	for _, sp := range w.specs {
		stores := w.stores[sp.Name]
		for {
			same := true
			first, err := storeContents(stores[0])
			if err != nil {
				return err
			}
			for _, st := range stores[1:] {
				m, err := storeContents(st)
				if err != nil {
					return err
				}
				same = same && maps.Equal(first, m)
			}
			if same {
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("replicas of %s still differ after %v", sp.Name, kvMaxSettling)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	ring := w.bindings[0].Ring()
	for c := range w.bindings {
		for key, want := range w.expect[c] {
			for _, st := range w.stores[ring.Owner(key)] {
				got, err := st.Handle("get", []byte(key))
				if err != nil || string(got) != want {
					return fmt.Errorf("%s holds %s=%q, client %d last wrote %q", ring.Owner(key), key, got, c, want)
				}
			}
		}
	}
	return nil
}
