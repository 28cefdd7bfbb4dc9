package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
)

// invoke-mem: open-group request-reply on the in-process network. Three
// replicas under sequencer order; two closed-loop clients, each bound
// through its own non-sequencer request manager, draw every call's reply
// mode (First, Majority, All) from the seed. Every op takes the full core
// invocation path while transport costs next to nothing.

const (
	invokeClients = 2
	warmCalls     = 100
)

var replyModes = []core.ReplyMode{core.First, core.Majority, core.All}

func runInvokeMem(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var eps endpoints
	w, err := setUp(cfg, out, tr, func(seed int64) (*invokeWorld, error) {
		return setupInvoke(ctx, seed, tr, &eps)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	bindings := w.bindings

	groups := make([]*gcs.Group, 0, len(bindings))
	for _, b := range bindings {
		groups = append(groups, b.Group())
	}
	stBefore := w.gcsStats(groups...)
	sendBefore := eps.totals()
	issued := len(bindings) * warmCalls

	type clientResult struct {
		lats              []sample
		attempted, failed int
		firstErr          error
	}
	results := make([]clientResult, len(bindings))
	var wg sync.WaitGroup
	ph := startPhase(cfg.seconds)
	for c, b := range bindings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
			proc := fmt.Sprintf("c%02d", c)
			for seq := uint64(warmCalls); ph.running(); seq++ {
				mode := replyModes[rng.Intn(len(replyModes))]
				id := uint64(c+1)<<40 | seq
				args := reqArgs(id)
				traced := tr.sampled(id)
				var s0 int64
				if traced {
					s0 = tr.now()
				}
				t0 := time.Now()
				replies, err := b.Call(ctx, "echo", args, core.WithMode(mode))
				done := time.Now()
				if traced {
					tr.add(span{Name: "call", ID: id, Proc: proc, Start: s0, End: tr.now(), Need: needOf(mode)})
				}
				r.attempted++
				if err := checkReplies(replies, err, needOf(mode), args); err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.lats = append(r.lats, sample{at: done.Sub(ph.start), lat: done.Sub(t0)})
			}
		}()
	}
	wg.Wait()
	ph.finish(out)

	var firstErr error
	for _, r := range results {
		out.attempted += r.attempted
		out.failed += r.failed
		out.writes = append(out.writes, r.lats...)
		issued += r.attempted
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	out.ops = len(out.writes)
	if out.ops == 0 {
		return nil, errNoOps
	}
	out.check("calls-return-quorum", out.failed == 0, "%d of %d calls failed (first: %v)", out.failed, out.attempted, firstErr)
	err = converge(ctx, w.logs, issued, 20*time.Second)
	out.check("replicas-agree-exactly-once", err == nil, "%d requests at 3 replicas: %v", issued, errText(err))

	if tr != nil {
		layers := map[string]float64{}
		spans := tr.snapshot()
		invocationLayers(layers, joinSpans(spans, "servant", "call"), 3)
		layers["servant.exec_us"] = servantExec(spans)
		gcsLayers(layers, stBefore, w.gcsStats(groups...), out.ops)
		sent := eps.totals().minus(sendBefore)
		transportLayers(layers, sent, out.ops)
		out.layers = layers
		out.counters = sent.counters()
	}
	return out, nil
}

// invokeWorld is the echo world with the clients' bindings.
type invokeWorld struct {
	*echoWorld
	bindings []*core.Binding
}

func (w *invokeWorld) close() {
	closeBindings(w.bindings)
	w.echoWorld.close()
}

// setupInvoke builds the world, binds the clients and warms the path up.
func setupInvoke(ctx context.Context, seed int64, tr *tracer, eps *endpoints) (*invokeWorld, error) {
	ew, err := buildEchoWorld(ctx, seed, invokeClients, steadyTimers(), tr, eps)
	if err != nil {
		return nil, err
	}
	w := &invokeWorld{echoWorld: ew}
	for c, svc := range w.clients {
		// Client c binds through replica c+1: request managers that are
		// not the sequencer, one per client.
		b, err := svc.Bind(ctx, core.BindConfig{
			ServerGroup: "sg",
			Contact:     w.servers[1+c%2].ID(),
			Style:       core.Open,
			GCS:         steadyTimers(),
		})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("bind client %d: %w", c, err)
		}
		w.bindings = append(w.bindings, b)
	}
	for c, b := range w.bindings {
		for k := 0; k < warmCalls; k++ {
			args := reqArgs(uint64(c+1)<<40 | uint64(k))
			mode := replyModes[k%len(replyModes)]
			replies, err := b.Call(ctx, "echo", args, core.WithMode(mode))
			if err := checkReplies(replies, err, needOf(mode), args); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up call: %w", err)
			}
		}
	}
	return w, nil
}

func closeBindings(bs []*core.Binding) {
	for _, b := range bs {
		_ = b.Close()
	}
}

// servantExec is the median time inside the servant over all its spans.
func servantExec(spans []span) float64 {
	var d []time.Duration
	for _, s := range spans {
		if s.Name == "servant" {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	return us(median(d))
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
