package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// Handler implements the replicated application object hosted by a server
// group member. Invocations are executed in delivery (total) order, one at
// a time, so deterministic handlers keep replicas consistent. args alias
// the delivered message, which in-process replicas may share: a handler
// may keep them but must not modify them.
type Handler func(method string, args []byte) ([]byte, error)

// ServeConfig configures one member of a server group.
type ServeConfig struct {
	// Group is the server group identifier.
	Group ids.GroupID
	// Contact is an existing member to join through; empty founds the
	// group.
	Contact ids.ProcessID
	// Handler is the application object.
	Handler Handler
	// Snapshot captures the application state (optional; with Restore it
	// enables state transfer so new replicas can join a running group,
	// see ServeReplica). Called with executions quiesced.
	Snapshot func() ([]byte, error)
	// Restore installs a snapshot taken by another member's Snapshot.
	Restore func([]byte) error
	// GCS is the group communication configuration of the server group
	// (ordering protocol, liveness, timers). Defaults: sequencer order,
	// event-driven liveness.
	GCS gcs.GroupConfig
	// RMWait bounds how long this member, acting as a request manager,
	// gathers replies before answering with what it has (default 10s).
	RMWait time.Duration
	// ClientProbe is how often a server pings the clients of its
	// client/server groups to garbage-collect bindings whose client died
	// while the group was idle (default 30s).
	ClientProbe time.Duration
}

// Server is one member of a server group: it executes requests delivered
// through the server group and serves as request manager for any open
// client/server or client monitor groups it has been pulled into.
type Server struct {
	svc    *Service
	cfg    ServeConfig
	group  *gcs.Group
	rmWait time.Duration

	// execMu serializes handler executions (and the forwards that must
	// mirror their order) so replica state evolves deterministically.
	execMu   sync.Mutex
	replies  *replyCache  // executed calls: exactly-once across retries
	lastExec vclock.Stamp // total-order position of the last execution
	// notes caches the replica.execute span note per method name
	// (execMu held), so executions build no strings.
	notes map[string]string

	// in and env are handleGroupEvent's decode state. The group's events
	// reach it one at a time (a single dispatch worker per group, or the
	// replica's event loop), so they need no lock.
	in  *ids.Interner
	env envelope

	mu         sync.Mutex
	roster     map[ids.ProcessID]bool // fellow servers (hello ∩ view)
	lastView   int                    // size of the previously observed view
	collectors map[ids.CallID]*collector
	spare      []*collector          // recycled collectors
	sets       map[ids.CallID][]byte // request-manager answers as multicast, for retries
	setOrder   callRing              // eviction order of sets
	bindings   map[ids.GroupID]*gcs.Group
	seen       map[ids.CallID]bool // monitor-group duplicate filter
	seenOrder  callRing            // eviction order of seen
	closed     bool

	loopDone chan struct{}
	wg       sync.WaitGroup
}

// cacheCap bounds the retained-reply, reply-set and duplicate-filter
// caches.
const cacheCap = 4096

// Serve creates (or joins) a server group and starts serving it with the
// given handler. Joining a group that already processed traffic without
// state transfer yields a replica whose state starts empty; use
// ServeReplica with Snapshot/Restore hooks to catch up instead.
func (s *Service) Serve(ctx context.Context, cfg ServeConfig) (*Server, error) {
	return s.serve(ctx, cfg, false)
}

func (s *Service) serve(ctx context.Context, cfg ServeConfig, replica bool) (*Server, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("core: serve %q: nil handler", cfg.Group)
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	if cfg.RMWait <= 0 {
		cfg.RMWait = defaultRMWait
	}
	if cfg.ClientProbe <= 0 {
		cfg.ClientProbe = 30 * time.Second
	}

	var group *gcs.Group
	var err error
	if cfg.Contact.Nil() {
		group, err = s.node.Create(cfg.Group, cfg.GCS)
	} else {
		group, err = s.node.Join(ctx, cfg.Group, cfg.Contact, cfg.GCS)
	}
	if err != nil {
		return nil, fmt.Errorf("core: serve %q: %w", cfg.Group, err)
	}

	srv := &Server{
		svc:        s,
		cfg:        cfg,
		group:      group,
		rmWait:     cfg.RMWait,
		replies:    newReplyCache(cacheCap),
		notes:      make(map[string]string),
		in:         ids.NewInterner(),
		roster:     map[ids.ProcessID]bool{s.ID(): true},
		collectors: make(map[ids.CallID]*collector),
		sets:       make(map[ids.CallID][]byte),
		setOrder:   callRing{cap: cacheCap},
		bindings:   make(map[ids.GroupID]*gcs.Group),
		seen:       make(map[ids.CallID]bool),
		seenOrder:  callRing{cap: cacheCap},
		loopDone:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = group.Leave()
		return nil, ErrClosed
	}
	s.servers[cfg.Group] = srv
	s.mu.Unlock()

	// Export this server's aggregated group-communication counters as
	// labeled gauges (core_server_*{group="..."}), computed lazily at
	// snapshot time. A sharded node serves one group per shard, so the
	// per-group label is the per-shard breakdown; the service-level
	// collector (NewServiceObs) emits the cross-shard group="_total" sum.
	pfx := "core_server_" + obs.Sanitize(string(cfg.Group)) + "_"
	s.obs.Reg.SetCollector(pfx, func(emit func(name string, v int64)) {
		emitServerStats(emit, string(cfg.Group), srv.Stats())
	})

	ready := make(chan error, 1)
	if replica {
		// A replica first drains the state-transfer prologue from the
		// Events() channel; it keeps the channel consumption mode for its
		// lifetime (a group has exactly one consumption mode).
		go srv.groupLoop(ready)
	} else {
		// Plain servers run straight off the dispatch stage: the group's
		// events are handed to handleGroupEvent by a dispatch worker, in
		// delivery order, with no per-server consumer goroutine or channel
		// hop. Leave() quiesces the dispatch queue, so no handler call
		// survives Close.
		close(srv.loopDone)
		srv.group.SetHandler(srv.handleGroupEvent)
	}
	// Announce ourselves so the existing members add us to the server
	// roster (and, via their re-announcements, we learn them).
	_ = group.Multicast(ctx, encodeHello()) //lint:ok errdrop best-effort: roster repair re-announces on every membership change
	if !cfg.Contact.Nil() {
		srv.learnRoster(ctx, cfg.Contact)
	}
	if replica {
		select {
		case err := <-ready:
			if err != nil {
				_ = srv.Close()
				return nil, err
			}
		case <-ctx.Done():
			_ = srv.Close()
			return nil, fmt.Errorf("core: state transfer: %w", ctx.Err())
		}
	}
	return srv, nil
}

// emitServerStats emits one group's stats as core_server_* gauges labeled
// with the group name ("_total" for the service-wide aggregate).
func emitServerStats(emit func(name string, v int64), group string, st gcs.Stats) {
	l := func(base string) string { return obs.Labeled("core_server_"+base, "group", group) }
	emit(l("app_sent"), int64(st.AppSent))
	emit(l("nulls_sent"), int64(st.NullSent))
	emit(l("app_delivered"), int64(st.AppDelivered))
	emit(l("resent"), int64(st.Resent))
	emit(l("bytes_out"), int64(st.BytesSent))
	emit(l("bytes_in"), int64(st.BytesReceived))
	emit(l("views"), int64(st.ViewsInstalled))
	emit(l("pending"), int64(st.Pending))
	emit(l("store"), int64(st.StoreSize))
	emit(l("members"), int64(st.Members))
}

// ServerRoster returns the current server membership (excluding any
// closed-bound clients sharing the group).
func (srv *Server) ServerRoster() []ids.ProcessID {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]ids.ProcessID, 0, len(srv.roster))
	for p := range srv.roster {
		out = append(out, p)
	}
	return ids.SortProcesses(out)
}

// learnRoster seeds a joining member's roster from the contact's, so it
// answers "info" with the whole server group from the start rather than
// with itself alone until the older members' re-announcements arrive —
// a client binding through a fresh member would otherwise learn a
// one-server membership and have no one to rebind to when it fails.
// Entries outside the current view are skipped; re-announcements and
// view changes keep the roster current from here on.
func (srv *Server) learnRoster(ctx context.Context, contact ids.ProcessID) {
	members, err := srv.svc.ServerGroupMembers(ctx, contact, srv.cfg.Group)
	if err != nil {
		return // the re-announcements still converge the roster
	}
	v := srv.group.View()
	srv.mu.Lock()
	for _, m := range members {
		if v.Contains(m) {
			srv.roster[m] = true
		}
	}
	srv.mu.Unlock()
}

// GroupView returns the server group's current view.
func (srv *Server) GroupView() gcs.View { return srv.group.View() }

// Stats aggregates the group-communication counters of the server group
// and every binding (client/server and client monitor) group this server
// currently serves. The serve loop's periodic stats line and the /metrics
// collector both read it.
func (srv *Server) Stats() gcs.Stats {
	srv.mu.Lock()
	bindings := make([]*gcs.Group, 0, len(srv.bindings))
	for _, b := range srv.bindings {
		bindings = append(bindings, b)
	}
	srv.mu.Unlock()
	st := srv.group.Stats()
	for _, b := range bindings {
		st = st.Plus(b.Stats())
	}
	return st
}

// Close leaves the server group and every binding group.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	bindings := make([]*gcs.Group, 0, len(srv.bindings))
	for _, b := range srv.bindings {
		bindings = append(bindings, b)
	}
	for _, c := range srv.collectors {
		c.cancel()
	}
	srv.mu.Unlock()

	srv.svc.mu.Lock()
	delete(srv.svc.servers, srv.cfg.Group)
	srv.svc.mu.Unlock()
	srv.svc.obs.Reg.DropCollector("core_server_" + obs.Sanitize(string(srv.cfg.Group)) + "_")

	for _, b := range bindings {
		_ = b.Leave()
	}
	_ = srv.group.Leave()
	<-srv.loopDone
	srv.wg.Wait()
	return nil
}

// groupLoop consumes a replica's server-group delivery stream: the
// state-transfer prologue first, then the steady stream. Plain servers
// skip this goroutine entirely (SetHandler in serve).
func (srv *Server) groupLoop(ready chan<- error) {
	defer close(srv.loopDone)
	ctx, cancel := context.WithTimeout(context.Background(), srv.rmWait)
	err := srv.drainCatchup(ctx)
	cancel()
	ready <- err
	if err != nil {
		return
	}
	for ev := range srv.group.Events() {
		srv.handleGroupEvent(ev)
	}
}

// handleGroupEvent dispatches one server-group event.
func (srv *Server) handleGroupEvent(ev gcs.Event) {
	switch ev.Type {
	case gcs.EventDeliver:
		env := &srv.env
		if decodePayload(ev.Deliver.Payload, env, srv.in) == nil {
			switch env.kind {
			case payloadRequest:
				switch m := &env.req; {
				case m.Forwarded:
					srv.serveForwarded(m, ev.Deliver.Stamp)
				case m.Style == Closed:
					// A closed-bound client (a fellow group member)
					// multicast this request; execute and reply straight
					// to it (fig. 3(i)).
					srv.serveClosed(m, ev.Deliver.Stamp)
				}
			case payloadReply:
				srv.collectReply(env.rep)
			case payloadHello:
				srv.mu.Lock()
				srv.roster[ev.Deliver.Sender] = true
				srv.mu.Unlock()
			}
		}
		// Every delivered position is applied once handled: requests by
		// executeOnce above, everything else (gathered replies, roster
		// hellos, unparseable payloads) vacuously. Reads wait on delivery
		// stamps (session floors, read-index frontiers), so the executed
		// frontier must cover non-request traffic too or a read could
		// stall on a stamp no execution will ever carry.
		srv.noteApplied(ev.Deliver.Stamp)
	case gcs.EventView:
		srv.onGroupView(ev.View)
	}
}

// noteApplied advances the executed-prefix stamp past a consumed,
// state-neutral delivery.
func (srv *Server) noteApplied(stamp vclock.Stamp) {
	srv.execMu.Lock()
	if srv.lastExec.Less(stamp) {
		srv.lastExec = stamp
	}
	srv.execMu.Unlock()
}

// serveForwarded executes a request distributed through the server group
// (paper fig. 4(ii)→(iii)): every member executes it in the same total
// order and, unless the optimised asynchronous-forwarding path or one-way
// mode suppresses replies, multicasts its reply within the group.
func (srv *Server) serveForwarded(req *invRequest, stamp vclock.Stamp) {
	rep, fresh := srv.executeOnce(req.Call, req.Method, req.Args, stamp, req.Trace)
	if req.AsyncFwd || req.Mode == OneWay {
		return
	}
	_ = fresh                                                       // a retried call re-multicasts the retained reply (§4.1)
	_ = srv.group.Multicast(context.Background(), encodeReply(rep)) //lint:ok errdrop best-effort: the client retries and gets the retained reply
}

// executeOnce runs the handler for a call exactly once; retries get the
// retained reply (the paper's standard retry/dedup technique, §4.1).
func (srv *Server) executeOnce(call ids.CallID, method string, args []byte, stamp vclock.Stamp, trace uint64) (invReply, bool) {
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	if rep, ok := srv.replies.get(call); ok {
		rep.Trace = trace
		return rep, false
	}
	start := time.Now()
	payload, err := srv.cfg.Handler(method, args)
	d := time.Since(start)
	rep := invReply{Call: call, Server: srv.svc.ID(), Payload: payload, Trace: trace, ExecNanos: int64(d), Stamp: stamp}
	if err != nil {
		rep.Err = err.Error()
	}
	srv.replies.put(call, rep)
	if srv.lastExec.Less(stamp) {
		srv.lastExec = stamp
	}
	srv.svc.metrics.execLatency.Observe(d)
	srv.svc.obs.Tracer.Record(obs.Span{
		Trace: obs.TraceID(trace),
		Stage: "replica.execute",
		Proc:  string(srv.svc.ID()),
		Depth: 3,
		Start: start,
		Dur:   d,
		Note:  srv.methodNoteLocked(method),
	})
	return rep, true
}

// maxMethodNotes bounds the per-method span-note cache.
const maxMethodNotes = 256

// methodNoteLocked returns the replica.execute span note of one method
// (execMu held), building it only the first time the method is seen.
func (srv *Server) methodNoteLocked(method string) string {
	if n, ok := srv.notes[method]; ok {
		return n
	}
	n := "method=" + method
	if len(srv.notes) < maxMethodNotes {
		srv.notes[method] = n
	}
	return n
}

// collectReply routes a server-group reply to the collector gathering it.
func (srv *Server) collectReply(rep invReply) {
	// Reconstruct the remote replica's execution span from the envelope's
	// self-reported duration (our own executions are recorded locally with
	// true wall-clock positions, so skip those). Anchoring at receipt time
	// keeps the span clock-skew-free at the cost of a small transit shift.
	if rep.Trace != 0 && rep.Server != srv.svc.ID() && rep.ExecNanos > 0 {
		d := time.Duration(rep.ExecNanos)
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: obs.TraceID(rep.Trace),
			Stage: "replica.execute",
			Proc:  string(rep.Server),
			Depth: 3,
			Start: time.Now().Add(-d),
			Dur:   d,
			Note:  "reported by envelope",
		})
	}
	srv.mu.Lock()
	c := srv.collectors[rep.Call]
	n := len(srv.roster)
	srv.mu.Unlock()
	if c != nil {
		c.add(rep, n)
	}
}

// rosterSize is the number of live servers a reply quorum is computed
// against (closed clients in the view never reply).
func (srv *Server) rosterSize() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.roster)
}

// onGroupView intersects the roster with the new view, re-announces when
// newcomers appear (so late joiners learn the roster), and re-evaluates
// pending collectors (e.g. wait-for-all with a crashed member).
func (srv *Server) onGroupView(v *gcs.View) {
	srv.mu.Lock()
	for p := range srv.roster {
		if !v.Contains(p) {
			delete(srv.roster, p)
		}
	}
	grew := len(v.Members) > srv.lastView
	srv.lastView = len(v.Members)
	cs := make([]*collector, 0, len(srv.collectors))
	for _, c := range srv.collectors {
		cs = append(cs, c)
	}
	closed := srv.closed
	srv.mu.Unlock()

	if grew && !closed {
		_ = srv.group.Multicast(context.Background(), encodeHello()) //lint:ok errdrop best-effort: roster repair re-announces on every membership change
	}
	n := srv.rosterSize()
	for _, c := range cs {
		c.recheck(n)
	}
}

// joinBindingGroup pulls this server into a client/server or client
// monitor group and starts serving it.
func (srv *Server) joinBindingGroup(req *bindRequest) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return ErrClosed
	}
	if _, ok := srv.bindings[req.Group]; ok {
		srv.mu.Unlock()
		return nil // idempotent: bind retries are harmless
	}
	srv.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b, err := srv.svc.node.Join(ctx, req.Group, req.Contact, req.Config)
	if err != nil {
		return fmt.Errorf("core: join binding group %q: %w", req.Group, err)
	}

	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		_ = b.Leave()
		return ErrClosed
	}
	srv.bindings[req.Group] = b
	srv.mu.Unlock()

	probeStop := make(chan struct{})
	srv.wg.Add(2)
	go func() {
		defer srv.wg.Done()
		defer close(probeStop)
		srv.bindingLoop(b, req)
	}()
	go func() {
		defer srv.wg.Done()
		srv.probeClients(b, probeStop)
	}()
	return nil
}

// probeClients periodically pings the client members of a binding group;
// a client that stopped answering is reported to the membership service
// so the group disbands even if it was idle when the client died (an
// idle event-driven group runs no suspector of its own).
func (srv *Server) probeClients(b *gcs.Group, stop <-chan struct{}) {
	ticker := time.NewTicker(srv.cfg.ClientProbe)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		sg := srv.group.View()
		for _, m := range b.View().Members {
			if m == srv.svc.ID() || sg.Contains(m) {
				continue // ourselves or fellow servers
			}
			ctx, cancel := context.WithTimeout(context.Background(), srv.cfg.ClientProbe/2)
			_, err := srv.svc.invokeControl(ctx, m, "ping", nil)
			cancel()
			if err != nil {
				b.Suspect(m)
			}
		}
	}
}

// bindingLoop serves one client/server (or client monitor) group.
func (srv *Server) bindingLoop(b *gcs.Group, bind *bindRequest) {
	me := srv.svc.ID()
	in := ids.NewInterner()
	var env envelope
	for ev := range b.Events() {
		switch ev.Type {
		case gcs.EventDeliver:
			if ev.Deliver.Sender == me {
				continue // our own reply-set multicasts
			}
			if decodePayload(ev.Deliver.Payload, &env, in) != nil || env.kind != payloadRequest || env.req.Forwarded {
				continue
			}
			if bind.Style == Open {
				srv.serveAsRM(b, bind, &env.req)
			}
		case gcs.EventView:
			// When every client has gone, the client/server group has
			// served its purpose: leave it.
			if srv.clientsGone(ev.View) {
				srv.detachBinding(bind.Group, b)
				return
			}
		}
	}
}

// clientsGone reports whether a binding view contains no process besides
// local server members of the served group.
func (srv *Server) clientsGone(v *gcs.View) bool {
	sg := srv.group.View()
	for _, m := range v.Members {
		if m == srv.svc.ID() {
			continue
		}
		if !sg.Contains(m) {
			return false // a client (non-server) is still present
		}
	}
	return true
}

// detachBinding removes and leaves a binding group.
func (srv *Server) detachBinding(gid ids.GroupID, b *gcs.Group) {
	srv.mu.Lock()
	delete(srv.bindings, gid)
	srv.mu.Unlock()
	_ = b.Leave()
}

// serveClosed handles a request delivered in a closed client/server
// group: execute and reply straight to the client (paper fig. 3(i)).
func (srv *Server) serveClosed(req *invRequest, stamp vclock.Stamp) {
	rep, _ := srv.executeOnce(req.Call, req.Method, req.Args, stamp, req.Trace)
	if req.Mode == OneWay {
		return
	}
	srv.svc.sendDirectReply(req.Client, rep)
}

// serveAsRM handles a request delivered in an open client/server or
// client monitor group, acting as the request manager (paper fig. 4).
// req belongs to the caller's reusable envelope: nothing here may keep it
// past the return.
func (srv *Server) serveAsRM(b *gcs.Group, bind *bindRequest, req *invRequest) {
	srv.mu.Lock()
	if bind.Monitor {
		// Filter the duplicate requests that every client-group member
		// issues (paper §4.3): first copy wins.
		if srv.seen[req.Call] {
			srv.mu.Unlock()
			srv.svc.metrics.monitorDups.Inc()
			return
		}
		srv.seen[req.Call] = true
		if old, evicted := srv.seenOrder.push(req.Call); evicted {
			delete(srv.seen, old)
		}
	}
	if enc, ok := srv.sets[req.Call]; ok {
		// Retried call: resend the retained aggregated reply (§4.1).
		srv.mu.Unlock()
		if req.Mode != OneWay {
			_ = b.Multicast(context.Background(), retraceReplySet(enc, req.Trace)) //lint:ok errdrop best-effort: a lost resend just triggers another client retry
		}
		return
	}
	if _, inFlight := srv.collectors[req.Call]; inFlight {
		srv.mu.Unlock()
		return
	}
	srv.mu.Unlock()

	srv.recordRMReceive(req)

	if req.Mode == OneWay {
		// Distribute and return: nobody is waiting.
		fwd := *req
		fwd.Forwarded = true
		srv.svc.metrics.rmRelays.Inc()
		_ = srv.group.Multicast(context.Background(), encodeRequest(&fwd)) //lint:ok errdrop best-effort: one-way semantics promise no delivery guarantee to the caller
		return
	}
	// Stay audible in the client/server group while serving: the waiting
	// client holds the group's attention and would suspect a silent
	// manager whose reply is delayed by server-group work.
	b.Attend()
	if bind.AsyncFwd && req.Mode == First {
		defer b.Unattend()
		srv.serveAsyncForward(b, req)
		return
	}
	srv.serveCollected(b, req)
}

// recordRMReceive stitches the request manager's end of the trace: a
// synthesized client.send span from the envelope's departure timestamp
// (clients and request manager may disagree on clocks — the span is
// labelled as reported) and the rm.receive marker itself.
func (srv *Server) recordRMReceive(req *invRequest) {
	if req.Trace == 0 {
		return
	}
	now := time.Now()
	tid := obs.TraceID(req.Trace)
	if req.SentAt > 0 {
		sent := time.Unix(0, req.SentAt)
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: tid,
			Stage: "client.send",
			Proc:  string(req.Client),
			Depth: 0,
			Start: sent,
			Dur:   now.Sub(sent), // the transit to the request manager
			Note:  "reported by envelope",
		})
	}
	srv.svc.obs.Tracer.Record(obs.Span{
		Trace: tid,
		Stage: "rm.receive",
		Proc:  string(srv.svc.ID()),
		Depth: 1,
		Start: now,
		Note:  modeNote(req.Mode),
	})
}

// modeNote is the rm.receive span note for one reply mode.
func modeNote(m ReplyMode) string {
	switch m {
	case OneWay:
		return "mode=one-way"
	case First:
		return "mode=wait-for-first"
	case Majority:
		return "mode=wait-for-majority"
	case All:
		return "mode=wait-for-all"
	}
	return "mode=" + m.String()
}

// repliesNotes are the rm.collect span notes for small reply counts.
var repliesNotes = func() (notes [16]string) {
	for i := range notes {
		notes[i] = "replies=" + strconv.Itoa(i)
	}
	return notes
}()

// repliesNote is the rm.collect span note for n gathered replies.
func repliesNote(n int) string {
	if n >= 0 && n < len(repliesNotes) {
		return repliesNotes[n]
	}
	return "replies=" + strconv.Itoa(n)
}

// serveAsyncForward is the restricted-group + asynchronous-message-
// forwarding optimisation (§4.2): the request manager executes and
// replies immediately, forwarding the request one-way for the other
// members to apply.
func (srv *Server) serveAsyncForward(b *gcs.Group, req *invRequest) {
	srv.execMu.Lock()
	rep, fresh := func() (invReply, bool) {
		if r, ok := srv.replies.get(req.Call); ok {
			r.Trace = req.Trace
			return r, false
		}
		start := time.Now()
		payload, err := srv.cfg.Handler(req.Method, req.Args)
		d := time.Since(start)
		r := invReply{Call: req.Call, Server: srv.svc.ID(), Payload: payload, Trace: req.Trace, ExecNanos: int64(d), Stamp: srv.lastExec}
		if err != nil {
			r.Err = err.Error()
		}
		srv.replies.put(req.Call, r)
		srv.svc.metrics.execLatency.Observe(d)
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: obs.TraceID(req.Trace),
			Stage: "replica.execute",
			Proc:  string(srv.svc.ID()),
			Depth: 3,
			Start: start,
			Dur:   d,
			Note:  srv.methodNoteLocked(req.Method),
		})
		return r, true
	}()
	// The client's reply leaves before the one-way forwarding starts —
	// the forwarding is what must not sit on the critical path (that is
	// the whole point of the optimisation, §4.2). Both stay under execMu
	// so the backups apply requests in exactly the primary's execution
	// order.
	enc := encodeReplySet(&invReplySet{Call: req.Call, Replies: []invReply{rep}, Trace: req.Trace})
	srv.storeSet(req.Call, enc)
	replyStart := time.Now()
	//lint:ok lockblock deliberate: both multicasts stay under execMu so backups see the primary's execution order (§4.2)
	_ = b.Multicast(context.Background(), enc) //lint:ok errdrop best-effort: the client retries and gets the retained reply set
	srv.recordRMSpan(req.Trace, "rm.reply", replyStart, "async-forward")
	if fresh {
		fwd := *req
		fwd.Forwarded = true
		fwd.AsyncFwd = true
		srv.svc.metrics.rmRelays.Inc()
		fwdStart := time.Now()
		//lint:ok lockblock deliberate: both multicasts stay under execMu so backups see the primary's execution order (§4.2)
		_ = srv.group.Multicast(context.Background(), encodeRequest(&fwd)) //lint:ok errdrop best-effort: backups only lose a state refresh, the reply already left
		srv.recordRMSpan(req.Trace, "rm.forward", fwdStart, "one-way")
	}
	srv.execMu.Unlock()
}

// recordRMSpan records one request-manager stage span.
func (srv *Server) recordRMSpan(trace uint64, stage string, start time.Time, note string) {
	if trace == 0 {
		return
	}
	srv.svc.obs.Tracer.Record(obs.Span{
		Trace: obs.TraceID(trace),
		Stage: stage,
		Proc:  string(srv.svc.ID()),
		Depth: 2,
		Start: start,
		Dur:   time.Since(start),
		Note:  note,
	})
}

// serveCollected is the standard open-group path: distribute the request
// in the server group, gather replies per the reply mode, return the
// aggregate to the client group.
func (srv *Server) serveCollected(b *gcs.Group, req *invRequest) {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	c := srv.newCollectorLocked(req.Call, req.Mode)
	srv.collectors[req.Call] = c
	srv.mu.Unlock()

	fwd := *req
	fwd.Forwarded = true
	// Hold the server group's attention while gathering: a replica that
	// dies after receiving the forwarded request but before replying must
	// be suspected so the quorum shrinks.
	srv.group.Attend()
	srv.svc.metrics.rmRelays.Inc()
	fwdStart := time.Now()
	_ = srv.group.Multicast(context.Background(), encodeRequest(&fwd)) //lint:ok errdrop best-effort: the collector times out and aggregates whatever replies arrive
	srv.recordRMSpan(req.Trace, "rm.forward", fwdStart, "server-group multicast")

	c.arm(srv.rmWait)
	srv.wg.Add(1)
	go srv.answer(b, c, req.Trace)
}

// answer waits for a collector to close — quorum met, deadline passed or
// server closing — and multicasts the gathered replies to the client
// group, retaining them for retries.
func (srv *Server) answer(b *gcs.Group, c *collector, trace uint64) {
	defer srv.wg.Done()
	defer srv.group.Unattend()
	defer b.Unattend()
	collectStart := time.Now()
	call, enc, n := c.wait(trace)
	srv.recordRMSpan(trace, "rm.collect", collectStart, repliesNote(n))
	srv.mu.Lock()
	delete(srv.collectors, call)
	if len(srv.spare) < maxSpareCollectors {
		srv.spare = append(srv.spare, c)
	}
	srv.mu.Unlock()
	srv.storeSet(call, enc)
	replyStart := time.Now()
	_ = b.Multicast(context.Background(), enc) //lint:ok errdrop best-effort: the client retries and gets the retained reply set
	srv.recordRMSpan(trace, "rm.reply", replyStart, "client-group multicast")
}

// storeSet retains an aggregated reply, as multicast, for retries.
func (srv *Server) storeSet(call ids.CallID, enc []byte) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, ok := srv.sets[call]; ok {
		return
	}
	srv.sets[call] = enc
	if old, evicted := srv.setOrder.push(call); evicted {
		delete(srv.sets, old)
	}
}

// retraceReplySet returns an encoded reply set carrying trace instead of
// the trace it was encoded with.
func retraceReplySet(enc []byte, trace uint64) []byte {
	var env envelope
	if decodePayload(enc, &env, nil) != nil || env.kind != payloadReplySet || env.set.Trace == trace {
		return enc
	}
	env.set.Trace = trace
	return encodeReplySet(&env.set)
}

// maxSpareCollectors bounds the recycled-collector list.
const maxSpareCollectors = 64

// collector gathers the server replies of one request-managed call.
// Collectors are recycled (Server.spare): the reply slice keeps the
// roster-sized capacity it grew to, the completion channel is reused and
// the deadline timer is re-armed rather than created per call. A
// collector may be recycled while a late reply or view change still holds
// it, so every mutation checks the call it is meant for under mu.
type collector struct {
	mu       sync.Mutex
	call     ids.CallID
	mode     ReplyMode
	replies  []invReply // one per replying server
	closed   bool
	timedOut bool
	deadline time.Time
	done     chan struct{} // signalled exactly once per call, when it closes
	timer    *time.Timer   // runs expire at the deadline
}

// newCollectorLocked readies a collector for one call, recycling a spare
// one (srv.mu held).
func (srv *Server) newCollectorLocked(call ids.CallID, mode ReplyMode) *collector {
	var c *collector
	if n := len(srv.spare); n > 0 {
		c = srv.spare[n-1]
		srv.spare[n-1] = nil
		srv.spare = srv.spare[:n-1]
	} else {
		c = &collector{done: make(chan struct{}, 1)}
	}
	c.mu.Lock()
	c.call, c.mode = call, mode
	clear(c.replies)
	c.replies = c.replies[:0]
	c.closed, c.timedOut = false, false
	c.deadline = time.Time{}
	c.mu.Unlock()
	return c
}

// arm starts the collector's deadline.
func (c *collector) arm(d time.Duration) {
	c.mu.Lock()
	c.deadline = time.Now().Add(d)
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.expire)
	} else {
		c.timer.Reset(d)
	}
	c.mu.Unlock()
}

// expire closes a collector whose deadline has passed. A firing left over
// from the collector's previous call finds a later deadline and does
// nothing.
func (c *collector) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed && !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		c.timedOut = true
		c.closeLocked()
	}
}

// closeLocked marks the collector closed and wakes its waiter. done has
// room for the one signal a call ever sends, so this never blocks.
func (c *collector) closeLocked() {
	c.closed = true
	select {
	case c.done <- struct{}{}:
	default:
	}
}

// add records one server's reply (a later reply from the same server
// replaces its earlier one) and closes the collector once the mode's
// quorum of roster replies is in.
func (c *collector) add(rep invReply, roster int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || rep.Call != c.call {
		return
	}
	c.replies = putByServer(c.replies, rep)
	if len(c.replies) >= c.mode.need(roster) {
		c.closeLocked()
	}
}

// recheck re-evaluates the quorum against a changed roster.
func (c *collector) recheck(roster int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed && len(c.replies) >= c.mode.need(roster) {
		c.closeLocked()
	}
}

func (c *collector) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closeLocked()
	}
}

// wait blocks until the collector closes and returns its call, the
// gathered replies encoded as a reply set (sorted by server, carrying
// trace) and how many replies it holds.
func (c *collector) wait(trace uint64) (ids.CallID, []byte, int) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timer.Stop()
	slices.SortFunc(c.replies, func(x, y invReply) int { return cmp.Compare(x.Server, y.Server) })
	set := invReplySet{Call: c.call, Replies: c.replies, Trace: trace}
	if c.timedOut && len(c.replies) == 0 {
		set.Err = "request manager: no replies before deadline"
	}
	return c.call, encodeReplySet(&set), len(c.replies)
}

// replyCache retains executed replies for exactly-once retry semantics,
// evicting the oldest once it holds its capacity.
type replyCache struct {
	m     map[ids.CallID]invReply
	order callRing
}

func newReplyCache(capacity int) *replyCache {
	return &replyCache{m: make(map[ids.CallID]invReply, capacity), order: callRing{cap: capacity}}
}

func (rc *replyCache) get(call ids.CallID) (invReply, bool) {
	rep, ok := rc.m[call]
	return rep, ok
}

func (rc *replyCache) put(call ids.CallID, rep invReply) {
	if _, ok := rc.m[call]; ok {
		return
	}
	rc.m[call] = rep
	if old, evicted := rc.order.push(call); evicted {
		delete(rc.m, old)
	}
}

// callRing remembers the insertion order of a bounded cache's keys. It
// grows to its capacity once, then overwrites its oldest slot on every
// push, so a cache evicting in steady state reuses one backing array
// instead of re-slicing off its front and regrowing.
type callRing struct {
	keys []ids.CallID
	next int // once full: the oldest slot, overwritten by the next push
	cap  int
}

// push records k and returns the key it evicts, if the ring was full.
func (r *callRing) push(k ids.CallID) (ids.CallID, bool) {
	if len(r.keys) < r.cap {
		r.keys = append(r.keys, k)
		return ids.CallID{}, false
	}
	old := r.keys[r.next]
	r.keys[r.next] = k
	r.next = (r.next + 1) % r.cap
	return old, true
}

// DebugGroup exposes the server group for white-box diagnostics.
func (srv *Server) DebugGroup() *gcs.Group { return srv.group }
