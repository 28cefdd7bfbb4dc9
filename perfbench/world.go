package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// steadyTimers are group timers for the fast profile on workloads where
// nothing is meant to fail: suspicion is far beyond any scheduling stall
// of a saturated host, so a slow moment is measured, not turned into a
// view change.
func steadyTimers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 10 * time.Second,
		Resend:         500 * time.Millisecond,
		FlushTimeout:   10 * time.Second,
		Tick:           2 * time.Millisecond,
	}
}

// failoverTimers are the core test suite's timers: 250 ms suspicion.
func failoverTimers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 250 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   400 * time.Millisecond,
		Tick:           2 * time.Millisecond,
	}
}

// replicaLog records the request IDs one replica executed, in order.
type replicaLog struct {
	mu  sync.Mutex
	ids []uint64
}

func (l *replicaLog) add(id uint64) {
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

func (l *replicaLog) snapshot() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ids)
}

func (l *replicaLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ids)
}

// echoServant is the benchmark's replicated object: it logs the request
// ID carried in the first 8 bytes of args and echoes it back.
func echoServant(log *replicaLog, tr *tracer, proc string) core.Handler {
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
		log.add(id)
		out := slices.Clone(args[:8])
		if traced {
			tr.add(span{Name: "servant", ID: id, Proc: proc, Start: t0, End: tr.now()})
		}
		return out, nil
	}
}

// reqArgs encodes a request ID as invocation args.
func reqArgs(id uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, id)
	return b
}

// needOf is how many replies complete a reply mode on a 3-replica group.
func needOf(m core.ReplyMode) int {
	switch m {
	case core.First:
		return 1
	case core.Majority:
		return 2
	}
	return 3
}

// checkReplies validates one Call's replies: at least need of them, none
// carrying an error, each echoing the request.
func checkReplies(replies []core.Reply, err error, need int, args []byte) error {
	if err != nil {
		return err
	}
	if len(replies) < need {
		return fmt.Errorf("%d replies, mode needs %d", len(replies), need)
	}
	for _, r := range replies {
		if r.Err != nil {
			return fmt.Errorf("reply from %s: %w", r.Server, r.Err)
		}
		if string(r.Payload) != string(args[:8]) {
			return fmt.Errorf("reply from %s does not echo the request", r.Server)
		}
	}
	return nil
}

// echoWorld is one memnet world: three replicas of the echo servant in
// server group "sg" and a set of client services.
type echoWorld struct {
	net     *memnet.Net
	servers []*core.Service
	srvs    []*core.Server
	logs    []*replicaLog
	clients []*core.Service
}

func buildEchoWorld(ctx context.Context, seed int64, nClients int, timers gcs.GroupConfig, tr *tracer, eps *endpoints) (*echoWorld, error) {
	w := &echoWorld{net: memnet.New(netsim.New(netsim.FastProfile(), seed))}
	var contact ids.ProcessID
	for i := 0; i < 3; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			w.close()
			return nil, err
		}
		svc := core.NewService(eps.wrap(tr, ep))
		w.servers = append(w.servers, svc)
		log := &replicaLog{}
		w.logs = append(w.logs, log)
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "sg",
			Contact: contact,
			Handler: echoServant(log, tr, string(id)),
			GCS:     timers,
		})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("serve %s: %w", id, err)
		}
		w.srvs = append(w.srvs, srv)
		if i == 0 {
			contact = id
		}
	}
	if err := waitRoster(ctx, w.srvs, 3); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < nClients; i++ {
		id := ids.ProcessID(fmt.Sprintf("c%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, core.NewService(eps.wrap(tr, ep)))
	}
	return w, nil
}

// waitRoster waits until every server sees a roster of n servers.
func waitRoster(ctx context.Context, srvs []*core.Server, n int) error {
	for _, s := range srvs {
		for len(s.ServerRoster()) != n {
			select {
			case <-ctx.Done():
				return fmt.Errorf("server group did not form: %w", ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

func (w *echoWorld) close() {
	for _, c := range w.clients {
		_ = c.Close()
	}
	for _, s := range w.servers {
		_ = s.Close()
	}
}

// gcsStats sums the protocol counters of every group in the world.
func (w *echoWorld) gcsStats(extra ...*gcs.Group) gcs.Stats {
	var st gcs.Stats
	for _, s := range w.srvs {
		st = st.Plus(s.Stats())
	}
	for _, g := range extra {
		st = st.Plus(g.Stats())
	}
	return st
}

// gcsLayers fills the gcs.* ratio metrics from the counter deltas of the
// timed phase.
func gcsLayers(layers map[string]float64, before, after gcs.Stats, ops int) {
	app := float64(after.AppSent - before.AppSent)
	if app > 0 {
		layers["gcs.nulls_per_msg"] = float64(after.NullSent-before.NullSent) / app
		layers["gcs.resent_per_kmsg"] = float64(after.Resent-before.Resent) * 1000 / app
	}
	if ops > 0 {
		layers["gcs.bytes_per_op"] = float64(after.BytesSent-before.BytesSent) / float64(ops)
	}
}

// converge waits until every log holds at least n entries and all hold
// the same number, then compares them: every replica must have executed
// the same requests, each once, in the same order.
func converge(ctx context.Context, logs []*replicaLog, n int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		lens := make([]int, len(logs))
		done := true
		for i, l := range logs {
			lens[i] = l.len()
			if lens[i] < n || lens[i] != lens[0] {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("replica logs did not converge: lengths %v, want %d", lens, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	first := logs[0].snapshot()
	for i, l := range logs[1:] {
		if !slices.Equal(first, l.snapshot()) {
			return fmt.Errorf("replica %d executed a different sequence than replica 0", i+1)
		}
	}
	if dup := firstDuplicate(first); dup != 0 {
		return fmt.Errorf("request %#x executed twice", dup)
	}
	return nil
}

// firstDuplicate returns an ID that occurs twice in ids, or 0.
func firstDuplicate(xs []uint64) uint64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i]
		}
	}
	return 0
}

var errNoOps = errors.New("no operation completed in the timed phase")

// setups is how many times a steady workload builds its world in one run;
// setup_s is the median of their times. About one server-group formation
// in four waits one Resend period, so a single build is a coin toss.
const setups = 7

// setUp builds a steady workload's world setups times, closing all but
// the last, which the run measures, and records each build's time in
// out.setups. Spans recorded while building are dropped.
func setUp[W interface{ close() }](cfg config, out *outcome, tr *tracer, build func(seed int64) (W, error)) (W, error) {
	var w W
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = build(cfg.seed + int64(i)); err != nil {
			return w, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	if tr != nil {
		tr.reset()
	}
	return w, nil
}
