package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// quiescentTimers parks the steady-state protocol timers on an hour so
// background ticks, heartbeats and resends cannot pollute
// testing.AllocsPerRun, which counts allocations process-wide. Sequencer
// order under event-driven liveness still makes progress: the sequencer
// answers every data message with an ordering null straight away. The
// short flush timeout only paces Join's retry loop (half of it), so
// group formation stays quick; no flush runs once the groups are formed.
func quiescentTimers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    time.Hour,
		SuspectTimeout: time.Hour,
		Resend:         time.Hour,
		FlushTimeout:   20 * time.Millisecond,
		Tick:           time.Hour,
	}
}

// TestAllocGuardOpenCall budgets the whole open-group round trip (run by
// ci.sh's AllocGuard stage): a client plus three replicas on memnet's
// fast profile, bound through a request manager that is not the
// sequencer, so every call takes the full path — client multicast,
// request-manager re-multicast and ordering, three executions, reply
// multicasts, the gather and the reply-set multicast back. Every process
// shares this test binary, so the count is the whole stack's, per call.
//
// The budgets are the measured steady state plus at most 10% headroom
// (First 23, Majority 22, All 22–23 on amd64). Nearly all of what is left
// is one detached frame per gcs message — the request, its re-multicast,
// three replies, the reply set and the ordering nulls — plus the caller's
// []Reply and the request manager's answering goroutine.
func TestAllocGuardOpenCall(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-stack allocation guard; skipped in -short")
	}
	net := memnet.New(netsim.New(netsim.FastProfile(), 7))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var svcs []*core.Service
	defer func() {
		for i := len(svcs) - 1; i >= 0; i-- {
			_ = svcs[i].Close()
		}
	}()
	newSvc := func(id ids.ProcessID) *core.Service {
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		svc := core.NewService(ep)
		svcs = append(svcs, svc)
		return svc
	}

	echo := func(method string, args []byte) ([]byte, error) { return args, nil }
	var first *core.Server
	var contact ids.ProcessID
	for i := 0; i < 3; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		srv, err := newSvc(id).Serve(ctx, core.ServeConfig{
			Group:   "sg",
			Contact: contact,
			Handler: echo,
			GCS:     quiescentTimers(),
		})
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		if i == 0 {
			first, contact = srv, id
		}
	}
	for len(first.ServerRoster()) != 3 {
		if ctx.Err() != nil {
			t.Fatalf("roster never converged: %v", first.ServerRoster())
		}
		time.Sleep(2 * time.Millisecond)
	}
	b, err := newSvc("c00").Bind(ctx, core.BindConfig{
		ServerGroup: "sg",
		Contact:     "s01", // not the sequencer (s00)
		Style:       core.Open,
		GCS:         quiescentTimers(),
	})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	args := []byte("12345678")
	budgets := []struct {
		mode   core.ReplyMode
		want   int
		budget float64
	}{
		{core.First, 1, 25},
		{core.Majority, 2, 24},
		{core.All, 3, 25},
	}
	for _, bc := range budgets {
		call := func() {
			replies, err := b.Call(ctx, "echo", args, core.WithMode(bc.mode))
			if err != nil {
				t.Fatalf("%v call: %v", bc.mode, err)
			}
			if len(replies) < bc.want {
				t.Fatalf("%v call: %d replies, want %d", bc.mode, len(replies), bc.want)
			}
		}
		// Warm the path: pools, intern tables, caches and arenas.
		for i := 0; i < 200; i++ {
			call()
		}
		avg := testing.AllocsPerRun(300, call)
		t.Logf("open %v: %.1f allocs/call (budget %.0f)", bc.mode, avg, bc.budget)
		if avg > bc.budget && !raceEnabled {
			t.Errorf("open %v call allocates %.1f/call, budget %.0f", bc.mode, avg, bc.budget)
		}
	}
}

// TestAllocGuardBindingRead budgets the client half of a leased read
// (run by ci.sh's AllocGuard stage): option resolution, the replica pool
// and rotation, request encode, the ORB round trip to the replica's NSO
// and the reply decode. A single-member group keeps the lease valid with
// every timer parked (see TestAllocGuardLeasedRead). The client
// keeps its sorted replica pool across reads (rebuilt on view changes
// only), resolves options without escaping them to the heap and records
// its span with a constant note, so what remains (16/op on amd64) is the
// ORB call itself and the encode/decode of request and reply.
func TestAllocGuardBindingRead(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	ep, err := net.Endpoint("solo", netsim.SiteLAN)
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	svc := core.NewService(ep)
	defer svc.Close()
	cep, err := net.Endpoint("client", netsim.SiteLAN)
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	csvc := core.NewService(cep)
	defer csvc.Close()

	value := []byte("42")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	timers := quiescentTimers()
	timers.Order = gcs.OrderSequencer
	timers.LeaseTicks = 100
	if _, err := svc.Serve(ctx, core.ServeConfig{
		Group:   "alloc",
		Handler: func(method string, args []byte) ([]byte, error) { return value, nil },
		GCS:     timers,
	}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	b, err := csvc.Bind(ctx, core.BindConfig{ServerGroup: "alloc", Contact: "solo", GCS: timers})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	read := func() {
		got, err := b.Read(ctx, "get", nil, core.WithConsistency(core.Leased))
		if err != nil || string(got) != "42" {
			t.Fatalf("read: %q, %v", got, err)
		}
	}
	for i := 0; i < 64; i++ {
		read()
	}
	avg := testing.AllocsPerRun(300, read)
	t.Logf("binding read: %.1f allocs/op", avg)
	const budget = 17
	if avg > budget && !raceEnabled {
		t.Fatalf("binding read allocates %.1f/op, budget %d", avg, budget)
	}
}
