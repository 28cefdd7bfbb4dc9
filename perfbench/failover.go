package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/ids"
)

// rm-failover: repeated cycles, each in a fresh memnet world. Three
// replicas and two smart-proxy clients bound through the same
// non-sequencer request manager; calls go out on an open-loop schedule and
// are timed from when each was due; the request manager crashes at a
// seeded instant. Suspicion is 250 ms, the core tests' value. The only
// workload that changes views: suspicion, flush, view install and proxy
// rebind.

const (
	foClients  = 2
	foInterval = 10 * time.Millisecond // per client; the clients interleave
	// The crash falls foCrashMin plus up to foCrashSpan after the schedule
	// starts; calls keep coming foAfter past it, which outlasts a
	// doubled suspicion window.
	foCrashMin  = 50 * time.Millisecond
	foCrashSpan = 100 * time.Millisecond
	foAfter     = 800 * time.Millisecond
	foWarm      = 10
	foWindow    = 128
	// foCallTimeout fails a call still unanswered this long after it
	// was issued, so a stuck call ends the cycle instead of the run.
	foCallTimeout = 30 * time.Second
	// foLate is the generator lateness (p99) past which a run is flagged.
	foLate = foInterval / 2
)

// foRM is the request manager both clients bind through: not the
// sequencer, so the survivors keep their coordinator.
const foRM ids.ProcessID = "s01"

type foCall struct {
	due, done time.Time
	late      time.Duration
	err       error
}

// foCycle is one cycle's measurements.
type foCycle struct {
	setup          time.Duration
	start, crash   time.Time
	end            time.Time
	calls          []foCall
	proc           procDelta
	detectAt       time.Time // traced runs: survivors' rosters drop foRM
	views          float64   // traced runs: views per survivor
	execErr        error
	attempted, bad int
}

func runRMFailover(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var eps endpoints
	rng := rand.New(rand.NewSource(cfg.seed))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	sendBefore := eps.totals()
	var (
		cycles                     []*foCycle
		spent                      time.Duration
		p50s, p99s, outages, lates []time.Duration
		detects, rebinds           []time.Duration
		views                      float64
		firstErr                   error
	)
	runStart := time.Now()
	for n := 0; n == 0 || time.Since(runStart) < budget; n++ {
		c, err := runFailoverCycle(ctx, cfg.seed*1000+int64(n), n, rng, tr, &eps)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", n, err)
		}
		cycles = append(cycles, c)
	}
	for _, c := range cycles {
		out.setups = append(out.setups, c.setup)
		out.proc = out.proc.plus(c.proc)
		spent += c.end.Sub(c.start)
		out.attempted += c.attempted
		out.failed += c.bad
		var lat []time.Duration
		var recovered time.Time
		for _, call := range c.calls {
			lates = append(lates, call.late)
			if call.err != nil {
				if firstErr == nil {
					firstErr = call.err
				}
				continue
			}
			lat = append(lat, call.done.Sub(call.due))
			if !call.due.Before(c.crash) && (recovered.IsZero() || call.done.Before(recovered)) {
				recovered = call.done
			}
		}
		out.ops += len(lat)
		for _, l := range lat {
			out.writes = append(out.writes, sample{lat: l})
		}
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
		if !recovered.IsZero() {
			outages = append(outages, recovered.Sub(c.crash))
			if !c.detectAt.IsZero() {
				detects = append(detects, c.detectAt.Sub(c.crash))
				rebinds = append(rebinds, recovered.Sub(c.detectAt))
			}
		}
		views += c.views
	}
	out.elapsed = spent
	out.writeP50, out.writeP99 = median(p50s), median(p99s)
	if out.ops == 0 {
		return nil, errNoOps
	}

	execOK := true
	for _, c := range cycles {
		execOK = execOK && c.execErr == nil
	}
	out.check("no-call-fails", out.failed == 0, "%d of %d calls failed over %d cycles (first: %v)", out.failed, out.attempted, len(cycles), firstErr)
	out.check("survivors-execute-at-most-once", execOK, "%d cycles", len(cycles))
	out.check("every-cycle-recovers", len(outages) == len(cycles), "%d of %d cycles served a call due after the crash", len(outages), len(cycles))
	if tr != nil {
		out.check("survivors-drop-rm", len(detects) == len(outages), "%d of %d recovered cycles saw both survivors' rosters exclude %s", len(detects), len(outages), foRM)
	}
	genLate := percentile(lates, 99)
	out.check("generator-on-schedule", genLate <= foLate, "p99 lateness %v, limit %v: a late generator overstates latency", genLate, foLate)
	out.extra = append(out.extra,
		figure{"outage_p50_ms", "ms", ms(median(outages)), len(outages)},
		figure{"write_p99_pooled_ms", "ms", ms(percentile(lats(out.writes), 99)), len(out.writes)},
		figure{"bench.gen_late_p99_ms", "ms", ms(genLate), len(lates)},
	)

	if tr != nil {
		layers := map[string]float64{}
		spans := tr.snapshot()
		invocationLayers(layers, joinSpans(spans, "servant", "call"), 3)
		layers["servant.exec_us"] = servantExec(spans)
		out.extra = append(out.extra,
			figure{"gcs.detect_ms", "ms", ms(median(detects)), len(detects)},
			figure{"core.rebind_ms", "ms", ms(median(rebinds)), len(rebinds)},
			figure{"gcs.views_per_crash", "count", views / float64(len(cycles)), len(cycles)},
		)
		sent := eps.totals().minus(sendBefore)
		transportLayers(layers, sent, out.ops)
		out.layers = layers
		out.counters = sent.counters()
	}
	return out, nil
}

// runFailoverCycle builds a world, drives the open-loop schedule across a
// crash of the request manager, checks the survivors and tears down.
func runFailoverCycle(ctx context.Context, seed int64, n int, rng *rand.Rand, tr *tracer, eps *endpoints) (*foCycle, error) {
	c := &foCycle{}
	t0 := time.Now()
	w, err := buildEchoWorld(ctx, seed, foClients, failoverTimers(), tr, eps)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var proxies []*core.Proxy
	defer func() {
		for _, p := range proxies {
			_ = p.Close()
		}
	}()
	for i, svc := range w.clients {
		p, err := svc.NewProxy(ctx, core.BindConfig{
			ServerGroup: "sg",
			Contact:     foRM,
			Style:       core.Open,
			GCS:         failoverTimers(),
			Window:      foWindow,
		})
		if err != nil {
			return nil, fmt.Errorf("proxy %d: %w", i, err)
		}
		proxies = append(proxies, p)
		for k := 0; k < foWarm; k++ {
			args := reqArgs(foID(n, i, uint64(k)))
			replies, err := p.Call(ctx, "echo", args, core.WithMode(core.Majority))
			if err := checkReplies(replies, err, 2, args); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	c.setup = time.Since(t0)

	var survivors []*core.Server
	var survivorLogs []*replicaLog
	var viewsBefore []ids.ViewSeq
	for i, s := range w.srvs {
		if w.servers[i].ID() != foRM {
			survivors = append(survivors, s)
			survivorLogs = append(survivorLogs, w.logs[i])
			viewsBefore = append(viewsBefore, s.GroupView().Seq)
		}
	}

	p0 := sampleProc()
	c.start = time.Now().Add(2 * time.Millisecond)
	crashAt := c.start.Add(foCrashMin + time.Duration(rng.Int63n(int64(foCrashSpan))))
	stop := crashAt.Add(foAfter)

	var mu sync.Mutex
	var calls sync.WaitGroup
	var gens sync.WaitGroup
	for i, p := range proxies {
		gens.Add(1)
		go func() {
			defer gens.Done()
			first := c.start.Add(time.Duration(i) * foInterval / foClients)
			for k := uint64(0); ; k++ {
				due := first.Add(time.Duration(k) * foInterval)
				if due.After(stop) {
					return
				}
				time.Sleep(time.Until(due))
				late := time.Since(due)
				id := foID(n, i, foWarm+k)
				calls.Add(1)
				go func() {
					defer calls.Done()
					args := reqArgs(id)
					var s0 int64
					if tr != nil {
						s0 = tr.now()
					}
					cctx, cancel := context.WithTimeout(ctx, foCallTimeout)
					replies, err := p.Call(cctx, "echo", args, core.WithMode(core.Majority))
					cancel()
					done := time.Now()
					if tr != nil {
						tr.add(span{Name: "call", ID: id, Proc: string(w.clients[i].ID()), Start: s0, End: tr.now(), Need: 2})
					}
					err = checkReplies(replies, err, 2, args)
					mu.Lock()
					c.calls = append(c.calls, foCall{due: due, done: done, late: late, err: err})
					c.attempted++
					if err != nil {
						c.bad++
					}
					mu.Unlock()
				}()
			}
		}()
	}

	time.Sleep(time.Until(crashAt))
	w.net.Sim().Crash(foRM)
	c.crash = time.Now()
	if tr != nil {
		c.detectAt = awaitExclusion(ctx, survivors, foRM, c.crash.Add(foCallTimeout))
	}
	gens.Wait()
	calls.Wait()
	c.end = time.Now()
	c.proc = p0.until(sampleProc())

	for i, log := range survivorLogs {
		if dup := firstDuplicate(log.snapshot()); dup != 0 {
			c.execErr = fmt.Errorf("survivor %d executed request %#x twice", i, dup)
		}
	}
	if tr != nil {
		var v uint64
		for i, s := range survivors {
			v += uint64(s.GroupView().Seq - viewsBefore[i])
		}
		c.views = float64(v) / float64(len(survivors))
	}
	return c, nil
}

// awaitExclusion polls until every survivor's roster excludes p and
// returns that instant (zero if that has not happened by deadline).
func awaitExclusion(ctx context.Context, survivors []*core.Server, p ids.ProcessID, deadline time.Time) time.Time {
	for ctx.Err() == nil && time.Now().Before(deadline) {
		gone := true
		for _, s := range survivors {
			if ids.ContainsProcess(s.ServerRoster(), p) {
				gone = false
				break
			}
		}
		if gone {
			return time.Now()
		}
		time.Sleep(500 * time.Microsecond)
	}
	return time.Time{}
}

// foID is a request ID unique across a run's cycles and clients.
func foID(cycle, client int, k uint64) uint64 {
	return uint64(cycle)<<48 | uint64(client+1)<<40 | k
}
