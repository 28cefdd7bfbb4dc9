package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/transport/tcpnet"
)

// peer-tcp: peer participation over real loopback TCP. Three gcs members
// under symmetric order; two of them multicast 100-byte payloads, each
// with at most 16 of its own messages undelivered, and the third only
// delivers, so prompt-ack and null traffic stay on the path. No core or
// orb work: the tcpnet writer pipelines, framing, the wire codec and the
// symmetric ordering path carry the load.

const (
	peerMembers   = 3
	peerProducers = 2
	peerWindow    = 16
	peerPayload   = 100
	peerWarm      = 200 // multicasts per producer during set-up
)

func peerTimers() gcs.GroupConfig {
	t := steadyTimers()
	t.Order = gcs.OrderSymmetric
	t.Liveness = gcs.Lively
	return t
}

// peerWorld is one group of TCP-connected members plus their consumers.
type peerWorld struct {
	base   time.Time
	tcp    []*tcpnet.Endpoint
	nodes  []*gcs.Node
	groups []*gcs.Group
	tr     *tracer
	track  *peerTracker
	// own[i] receives a token per delivery of member i's own multicast.
	own       []chan struct{}
	consumers sync.WaitGroup
	members   []*memberState
	nextSeq   []uint64 // per producer, next sequence number to send
	filler    []byte   // seeded payload padding
}

// memberState is one member's delivery record, owned by its consumer
// goroutine until the consumers have exited.
type memberState struct {
	next      [peerProducers]uint64 // next expected seq per producer
	delivered int
	gaps      int
	order     uint64 // FNV-1a over the delivered (sender, seq) sequence
}

// peerTracker joins each multicast's deliveries across members.
type peerTracker struct {
	mu        sync.Mutex
	count     [peerProducers][]uint8
	timedFrom [peerProducers]uint64
	// timedAt is when the timed phase began, on the world's clock.
	timedAt  int64
	lats     []sample
	complete int // timed-phase multicasts delivered at every member
}

func (t *peerTracker) record(sender int, seq uint64, sentAt, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.count[sender]
	for uint64(len(*c)) <= seq {
		*c = append(*c, 0)
	}
	(*c)[seq]++
	if (*c)[seq] != peerMembers || seq < t.timedFrom[sender] {
		return
	}
	t.lats = append(t.lats, sample{at: time.Duration(at - t.timedAt), lat: time.Duration(at - sentAt)})
	t.complete++
}

// allDone reports whether every multicast below upTo[s] of each producer
// has reached every member.
func (t *peerTracker) allDone(upTo []uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s, n := range upTo {
		c := t.count[s]
		if uint64(len(c)) < n {
			return false
		}
		for seq := uint64(1); seq < n; seq++ {
			if c[seq] != peerMembers {
				return false
			}
		}
	}
	return true
}

// encodePeer builds one multicast: producer, sequence number and send
// time, padded to peerPayload bytes with the seeded filler.
func (w *peerWorld) encodePeer(sender int, seq uint64, sentAt int64) []byte {
	b := make([]byte, peerPayload)
	copy(b[17:], w.filler)
	b[0] = byte(sender)
	binary.BigEndian.PutUint64(b[1:], seq)
	binary.BigEndian.PutUint64(b[9:], uint64(sentAt))
	return b
}

func setupPeer(ctx context.Context, seed int64, tr *tracer, eps *endpoints) (*peerWorld, error) {
	w := &peerWorld{base: time.Now(), tr: tr, track: &peerTracker{}}
	w.filler = make([]byte, peerPayload-17)
	rand.New(rand.NewSource(seed)).Read(w.filler)
	fail := func(err error) (*peerWorld, error) {
		w.close()
		return nil, err
	}
	for i := 0; i < peerMembers; i++ {
		ep, err := tcpnet.Listen(ids.ProcessID(fmt.Sprintf("p%02d", i)), "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		w.tcp = append(w.tcp, ep)
	}
	for _, a := range w.tcp {
		for _, b := range w.tcp {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	for i, ep := range w.tcp {
		node := gcs.NewNode(eps.wrap(tr, ep))
		w.nodes = append(w.nodes, node)
		var g *gcs.Group
		var err error
		if i == 0 {
			g, err = node.Create("peer", peerTimers())
		} else {
			g, err = node.Join(ctx, "peer", w.nodes[0].ID(), peerTimers())
		}
		if err != nil {
			return fail(fmt.Errorf("member %d: %w", i, err))
		}
		w.groups = append(w.groups, g)
	}
	for _, g := range w.groups {
		for len(g.View().Members) != peerMembers {
			select {
			case <-ctx.Done():
				return fail(fmt.Errorf("peer group did not form: %w", ctx.Err()))
			case <-time.After(time.Millisecond):
			}
		}
	}
	for i, g := range w.groups {
		w.own = append(w.own, make(chan struct{}, peerWindow))
		m := &memberState{order: fnvOffset}
		for s := range m.next {
			m.next[s] = 1
		}
		w.members = append(w.members, m)
		w.consumers.Add(1)
		go w.consume(i, g, m)
	}
	w.nextSeq = make([]uint64, peerProducers)
	for s := range w.nextSeq {
		w.nextSeq[s] = 1
	}

	// Warm-up: a burst from each producer, drained everywhere.
	var wg sync.WaitGroup
	errs := make([]error, peerProducers)
	for s := 0; s < peerProducers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = w.produce(ctx, s, func(k int) bool { return k < peerWarm })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	if err := w.drain(ctx); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	return w, nil
}

// FNV-1a parameters: each member folds the (sender, seq) bytes of every
// delivery into one hash, so equal hashes mean equal delivery orders.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// consume is member i's delivery handler loop.
func (w *peerWorld) consume(i int, g *gcs.Group, m *memberState) {
	defer w.consumers.Done()
	for ev := range g.Events() {
		if ev.Type != gcs.EventDeliver {
			continue
		}
		p := ev.Deliver.Payload
		at := int64(time.Since(w.base))
		if len(p) != peerPayload || int(p[0]) >= peerProducers {
			m.gaps++
			continue
		}
		sender := int(p[0])
		seq := binary.BigEndian.Uint64(p[1:])
		if seq != m.next[sender] {
			m.gaps++
		}
		m.next[sender] = seq + 1
		m.delivered++
		for _, b := range p[:9] {
			m.order = (m.order ^ uint64(b)) * fnvPrime
		}
		w.track.record(sender, seq, int64(binary.BigEndian.Uint64(p[9:])), at)
		if sender == i {
			w.own[i] <- struct{}{}
		}
		if id := uint64(sender+1)<<40 | seq; w.tr.sampled(id) {
			w.tr.add(span{Name: "deliver", ID: id, Proc: string(g.Me()), Start: at, End: int64(time.Since(w.base))})
		}
	}
}

// produce multicasts from producer s while more(k) holds for the k-th
// message, keeping at most peerWindow of its own undelivered.
func (w *peerWorld) produce(ctx context.Context, s int, more func(k int) bool) error {
	g := w.groups[s]
	inFlight := 0
	for k := 0; more(k); k++ {
		for inFlight >= peerWindow {
			select {
			case <-w.own[s]:
				inFlight--
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		seq := w.nextSeq[s]
		t0 := time.Now()
		if err := g.Multicast(ctx, w.encodePeer(s, seq, int64(t0.Sub(w.base)))); err != nil {
			return err
		}
		if id := uint64(s+1)<<40 | seq; w.tr.sampled(id) {
			w.tr.add(span{Name: "multicast", ID: id, Proc: string(g.Me()),
				Start: int64(t0.Sub(w.base)), End: int64(time.Since(w.base))})
		}
		w.nextSeq[s]++
		inFlight++
	}
	// Return the window's tokens for messages still in flight, so the
	// next phase starts with an empty window.
	for ; inFlight > 0; inFlight-- {
		select {
		case <-w.own[s]:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// drain waits until every multicast sent so far reached every member.
func (w *peerWorld) drain(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for !w.track.allDone(w.nextSeq) {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("multicasts not delivered at every member within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (w *peerWorld) close() {
	for _, g := range w.groups {
		_ = g.Leave()
	}
	if w.members != nil {
		w.consumers.Wait()
	}
	for _, n := range w.nodes {
		_ = n.Close()
	}
	for _, ep := range w.tcp[len(w.nodes):] {
		_ = ep.Close()
	}
}

func (w *peerWorld) gcsStats() gcs.Stats {
	var st gcs.Stats
	for _, g := range w.groups {
		st = st.Plus(g.Stats())
	}
	return st
}

func (w *peerWorld) tcpStats() tcpnet.Stats {
	var st tcpnet.Stats
	for _, ep := range w.tcp {
		s := ep.Stats()
		st.FramesSent += s.FramesSent
		st.Flushes += s.Flushes
		st.DropsFull += s.DropsFull
		st.DropsConn += s.DropsConn
	}
	return st
}

func runPeerTCP(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var eps endpoints
	w, err := setUp(cfg, out, tr, func(seed int64) (*peerWorld, error) {
		return setupPeer(ctx, seed, tr, &eps)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()

	stBefore, tcpBefore, sendBefore := w.gcsStats(), w.tcpStats(), eps.totals()
	var wg sync.WaitGroup
	errs := make([]error, peerProducers)
	ph := startPhase(cfg.seconds)
	w.track.mu.Lock()
	for s := range w.track.timedFrom {
		w.track.timedFrom[s] = w.nextSeq[s]
	}
	w.track.timedAt = int64(ph.start.Sub(w.base))
	w.track.lats, w.track.complete = nil, 0
	w.track.mu.Unlock()
	for s := 0; s < peerProducers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = w.produce(ctx, s, func(int) bool { return ph.running() })
		}()
	}
	wg.Wait()
	drainErr := w.drain(ctx)
	stAfter, tcpAfter, sendAfter := w.gcsStats(), w.tcpStats(), eps.totals()
	ph.finish(out)

	for s := range errs {
		if errs[s] != nil {
			return nil, fmt.Errorf("producer %d: %w", s, errs[s])
		}
		out.attempted += int(w.nextSeq[s] - w.track.timedFrom[s])
	}
	w.track.mu.Lock()
	out.writes = w.track.lats
	out.ops = w.track.complete
	w.track.mu.Unlock()
	out.failed = out.attempted - out.ops
	if out.ops == 0 {
		return nil, errNoOps
	}
	out.check("every-member-delivers-all", drainErr == nil && out.failed == 0,
		"%d of %d multicasts delivered everywhere: %v", out.ops, out.attempted, errText(drainErr))

	// Stop the consumers before reading their state.
	for _, g := range w.groups {
		_ = g.Leave()
	}
	w.consumers.Wait()
	w.groups = nil
	agree := true
	for _, m := range w.members {
		if m.gaps > 0 || m.delivered != w.members[0].delivered || m.order != w.members[0].order {
			agree = false
		}
	}
	out.check("members-agree-on-order", agree, "deliveries %d/%d/%d, gaps %d/%d/%d",
		w.members[0].delivered, w.members[1].delivered, w.members[2].delivered,
		w.members[0].gaps, w.members[1].gaps, w.members[2].gaps)

	if tr != nil {
		layers := map[string]float64{}
		var inside, handler, skew []time.Duration
		for _, j := range joinSpans(tr.snapshot(), "deliver", "multicast") {
			if j.op.Name == "" || len(j.children) == 0 {
				continue
			}
			inside = append(inside, time.Duration(j.op.End-j.op.Start))
			first, last := j.children[0].Start, j.children[0].Start
			for _, d := range j.children {
				handler = append(handler, time.Duration(d.End-d.Start))
				first, last = min(first, d.Start), max(last, d.Start)
			}
			if len(j.children) == peerMembers {
				skew = append(skew, time.Duration(last-first))
			}
		}
		layers["gcs.multicast_us"] = us(median(inside))
		layers["gcs.deliver_skew_us"] = us(median(skew))
		layers["servant.exec_us"] = us(median(handler))
		if fl := tcpAfter.Flushes - tcpBefore.Flushes; fl > 0 {
			layers["tcpnet.frames_per_flush"] = float64(tcpAfter.FramesSent-tcpBefore.FramesSent) / float64(fl)
		}
		layers["tcpnet.drops"] = float64(tcpAfter.DropsFull + tcpAfter.DropsConn - tcpBefore.DropsFull - tcpBefore.DropsConn)
		gcsLayers(layers, stBefore, stAfter, out.ops)
		sent := sendAfter.minus(sendBefore)
		transportLayers(layers, sent, out.ops)
		out.layers = layers
		out.counters = sent.counters()
	}
	return out, nil
}
