package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"newtop/internal/core"
)

// TestRMCrashAtEveryPipelineStage crashes the request manager at a sweep
// of instants relative to an in-flight invocation, covering the stages of
// fig. 4 — receiving the client request (i), distributing it (ii),
// gathering replies (iii) and returning them (iv) — and verifies the
// smart proxy recovers every time with exactly-once execution at the
// survivors.
func TestRMCrashAtEveryPipelineStage(t *testing.T) {
	delays := []time.Duration{
		0,                      // before the request reaches the manager (i)
		200 * time.Microsecond, // around distribution (ii)
		time.Millisecond,       // around reply gathering (iii)
		3 * time.Millisecond,   // around returning the replies (iv)
	}
	for _, delay := range delays {
		delay := delay
		t.Run(delay.String(), func(t *testing.T) {
			w := newWorld(t, 3, 1)
			cfg := w.bindCfg(core.Open)
			cfg.Contact = "s01" // non-leader RM so survivors keep a coordinator
			p, err := w.clients[0].NewProxy(ctxT(t, 15*time.Second), cfg)
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			defer p.Close()
			rm := p.Binding().RequestManager()

			// Warm call so the pipeline is steady.
			if _, err := p.Call(ctxT(t, 10*time.Second), "echo", []byte("w"), core.WithMode(core.All)); err != nil {
				t.Fatalf("warm-up: %v", err)
			}

			crashed := make(chan struct{})
			go func() {
				time.Sleep(delay)
				w.net.Sim().Crash(rm)
				close(crashed)
			}()
			replies, err := p.Call(ctxT(t, 30*time.Second), "echo", []byte("x"), core.WithMode(core.All))
			<-crashed
			if err != nil {
				t.Fatalf("invoke with crash at +%v: %v", delay, err)
			}
			for _, r := range replies {
				if r.Err != nil {
					t.Fatalf("reply error: %v", r.Err)
				}
			}

			// Exactly-once at the survivors: warm + crash call = 2 calls,
			// so no surviving replica may have executed more than twice
			// (the dead manager's count is irrelevant).
			for id, c := range w.calls {
				if id == rm {
					continue
				}
				if got := c.Load(); got > 2 {
					t.Fatalf("server %s executed %d times for 2 calls", id, got)
				}
			}

			// And the system keeps working afterwards.
			if _, err := p.Call(ctxT(t, 20*time.Second), "echo", []byte("post"), core.WithMode(core.Majority)); err != nil {
				t.Fatalf("post-crash invoke: %v", err)
			}
		})
	}
}

// TestSequentialRMCrashes kills request managers one after another; the
// proxy keeps rebinding until a single replica remains.
func TestSequentialRMCrashes(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Contact = "s02"
	cfg.BindTimeout = 5 * time.Second // dead contacts must fail reasonably fast
	p, err := w.clients[0].NewProxy(ctxT(t, 15*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for round := 0; round < 2; round++ {
		if _, err := p.Call(ctxT(t, 30*time.Second), "echo", []byte(fmt.Sprint(round)), core.WithMode(core.First)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rm := p.Binding().RequestManager()
		w.net.Sim().Crash(rm)
	}
	// The final rebind may walk through dead contacts (one BindTimeout
	// each) before reaching the survivor; budget generously.
	replies, err := p.Call(ctxT(t, 90*time.Second), "echo", []byte("last"), core.WithMode(core.First))
	if err != nil {
		t.Fatalf("final invoke: %v", err)
	}
	if len(replies) == 0 {
		t.Fatal("no reply from the last survivor")
	}
}

// TestClientCrashReleasesServerSideBinding verifies servers drop an open
// client/server group once its client disappears.
func TestClientCrashReleasesServerSideBinding(t *testing.T) {
	w := newWorld(t, 2, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.First)); err != nil {
		t.Fatal(err)
	}
	rm := b.RequestManager()
	csGroup := b.Group().ID()
	w.net.Sim().Crash(w.clients[0].ID())

	// The RM's node should leave the client/server group once the client
	// is suspected (event-driven: the client's unacknowledged departure
	// leaves unstable state that keeps the suspector alive).
	var rmSvc *core.Service
	for _, s := range w.servers {
		if s.ID() == rm {
			rmSvc = s
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for rmSvc.Node().Group(csGroup) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("request manager never released binding group %s", csGroup)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProxyConcurrentCallsAcrossRMCrash puts two calls in flight through
// one proxy as its request manager crashes. Both must finish well under
// BindTimeout: they share a single rebind, and that rebind skips the
// crashed manager even though it is the configured contact. A caller
// that started its own rebind after the other had cleared the binding
// would have lost track of the failed manager, tried the dead contact
// first and waited out a whole BindTimeout.
func TestProxyConcurrentCallsAcrossRMCrash(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Contact = "s02"
	cfg.BindTimeout = 5 * time.Second
	p, err := w.clients[0].NewProxy(ctxT(t, 15*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Call(ctxT(t, 10*time.Second), "echo", []byte("warm"), core.WithMode(core.First)); err != nil {
		t.Fatal(err)
	}
	rm := p.Binding().RequestManager()
	if rm != "s02" {
		t.Fatalf("bound through %s, want the configured contact s02", rm)
	}
	w.net.Sim().Crash(rm)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	took := make([]time.Duration, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = p.Call(ctxT(t, 30*time.Second), "echo", []byte(fmt.Sprint(i)), core.WithMode(core.First))
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if took[i] >= cfg.BindTimeout/2 {
			t.Fatalf("call %d took %v across the crash; a rebind should not wait on the dead contact (BindTimeout %v)", i, took[i], cfg.BindTimeout)
		}
	}
	if now := p.Binding().RequestManager(); now == rm {
		t.Fatalf("rebound to the crashed manager %s", rm)
	}
}
