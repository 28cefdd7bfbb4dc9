package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/vclock"
)

// BindConfig configures a client's binding to a server group.
type BindConfig struct {
	// ServerGroup is the group to invoke.
	ServerGroup ids.GroupID
	// Contact is any member of the server group (the bootstrap address).
	Contact ids.ProcessID
	// Style selects closed or open interaction (default Open).
	Style Style
	// Restricted, for open bindings, binds to the server group's leader
	// instead of an arbitrary member, so every client shares one request
	// manager — the restricted-group optimisation of §4.2, under which
	// the request manager never waits for its own forwarding multicast.
	Restricted bool
	// AsyncForward additionally enables the asynchronous-message-
	// forwarding optimisation for wait-for-first calls (§4.2): the
	// request manager replies from its own execution and forwards
	// one-way. Combined with Restricted this is the paper's
	// passive-replication configuration.
	AsyncForward bool
	// GCS is the configuration template for the client/server group
	// (ordering protocol, timers). Leader is filled in automatically with
	// the request manager. Defaults: sequencer order, event-driven.
	GCS gcs.GroupConfig
	// BindTimeout bounds group formation (default 10s).
	BindTimeout time.Duration
	// Window bounds the outstanding InvokeAsync calls on the binding —
	// the pipelining depth. When the window is full, InvokeAsync blocks
	// until a call completes (backpressure). Synchronous calls occupy a
	// slot for their whole duration too, since they are an InvokeAsync
	// awaited immediately. Default 16.
	Window int
	// ReadConsistency is the default consistency of Read calls that carry
	// no WithConsistency option (default Leased). Writes are unaffected.
	ReadConsistency Consistency
	// ReadRenew is how long a binding's leased/stale reads favour one
	// replica before rotating to the next — long enough that a replica's
	// caches stay warm, short enough that read load spreads across the
	// group and a replica with an expiring lease is abandoned promptly.
	// Default 1s.
	ReadRenew time.Duration
}

// defaultWindow is the pipelining depth when BindConfig.Window is unset.
const defaultWindow = 16

// defaultReadRenew is the replica-rotation period when BindConfig.ReadRenew
// is unset.
const defaultReadRenew = time.Second

// windowOf resolves the configured pipelining depth.
func windowOf(cfg BindConfig) int {
	if cfg.Window > 0 {
		return cfg.Window
	}
	return defaultWindow
}

// Binding is a client's attachment to a server group through a
// client/server group (closed: client + every server; open: client +
// request manager).
type Binding struct {
	svc   *Service
	cfg   BindConfig
	group *gcs.Group
	rm    ids.ProcessID // request manager (open style)
	// sgMembers is the server group membership learned at bind time,
	// kept for rebinding after a request manager failure.
	sgMembers []ids.ProcessID

	mu      sync.Mutex
	servers []ids.ProcessID // servers bound into the group (closed style)
	// view is the client/server group view as this binding last observed
	// it, cached under mu so that Servers and Broken answer from the same
	// instant: onView installs the new view and the broken judgement in
	// one critical section, where reading the group's live view here
	// would race the membership callback during a rebind.
	view     gcs.View
	broken   bool
	brokenCh chan struct{}
	viewCh   chan struct{}
	closed   bool

	// sessStamp is the session token: the newest applied stamp observed
	// in any reply (writes and reads both advance it). Reads default
	// their session floor to it — that is read-your-writes across
	// replicas.
	sessStamp vclock.Stamp
	// readPool is the sorted replica pool reads choose from, rebuilt on
	// every view change rather than per read (see refreshReadPoolLocked).
	// readIdx/readPickAt rotate leased and stale reads across it: the
	// favourite advances every cfg.ReadRenew.
	readPool   []ids.ProcessID
	readIdx    int
	readPickAt time.Time

	// window is the outstanding-call semaphore: one slot per in-flight
	// invocation, capacity BindConfig.Window. Acquired in InvokeAsync,
	// released when the call completes.
	window chan struct{}

	loopDone chan struct{}
}

// Bind forms a client/server group with the configured style and returns
// the binding (paper fig. 3). The client learns the server group's
// membership from the contact, creates the group, and pulls the chosen
// server(s) in.
func (s *Service) Bind(ctx context.Context, cfg BindConfig) (*Binding, error) {
	if cfg.Style == 0 {
		cfg.Style = Open
	}
	if cfg.BindTimeout <= 0 {
		cfg.BindTimeout = 10 * time.Second
	}
	if cfg.ReadRenew <= 0 {
		cfg.ReadRenew = defaultReadRenew
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	ctx, cancel := context.WithTimeout(ctx, cfg.BindTimeout)
	defer cancel()

	members, err := s.ServerGroupMembers(ctx, cfg.Contact, cfg.ServerGroup)
	if err != nil {
		return nil, fmt.Errorf("core: bind %q: %w", cfg.ServerGroup, err)
	}
	if len(members) == 0 {
		return nil, ErrNoServers
	}
	if cfg.Style == Closed {
		return s.bindClosed(ctx, cfg, members)
	}

	// Choose the request manager (open) or the group anchor (closed):
	// the restricted optimisation pins it to the server group's leader.
	rm := cfg.Contact
	if !ids.ContainsProcess(members, rm) || cfg.Restricted {
		rm = ids.MinProcess(members)
	}

	s.mu.Lock()
	s.nextCall++
	gid := ids.GroupID(fmt.Sprintf("cs/%s/%s/%d", cfg.ServerGroup, s.ID(), s.nextCall))
	s.mu.Unlock()

	gcfg := cfg.GCS
	gcfg.Leader = rm
	group, err := s.node.Create(gid, gcfg)
	if err != nil {
		return nil, fmt.Errorf("core: bind %q: %w", cfg.ServerGroup, err)
	}

	b := &Binding{
		svc:       s,
		cfg:       cfg,
		group:     group,
		rm:        rm,
		sgMembers: members,
		brokenCh:  make(chan struct{}),
		viewCh:    make(chan struct{}, 1),
		window:    make(chan struct{}, windowOf(cfg)),
		loopDone:  make(chan struct{}),
	}

	bound, err := s.pullServers(ctx, b, gid, []ids.ProcessID{rm}, gcfg)
	if err != nil {
		_ = group.Leave()
		return nil, err
	}
	b.servers = bound

	if err := b.awaitFormation(ctx); err != nil {
		_ = group.Leave()
		return nil, err
	}
	b.view = group.View() // seed the cache; onView keeps it current
	b.refreshReadPoolLocked()
	go b.clientLoop()
	return b, nil
}

// bindClosed forms a closed binding (paper fig. 3(i)): the client becomes
// a member of the server group itself — its client/server group fully
// overlaps the server group — so its requests travel through the group\'s
// own total-order multicast and it participates in the group\'s protocol
// traffic like any member. That participation is exactly what the paper
// identifies as the closed approach\'s cost on high-latency paths and at
// high client counts, and its benefit: server failures are masked by the
// membership service with no rebinding.
//
// The client\'s cfg.GCS must match the configuration the server group was
// created with (ordering protocol and liveness), as for any group join.
func (s *Service) bindClosed(ctx context.Context, cfg BindConfig, members []ids.ProcessID) (*Binding, error) {
	if cfg.ReadRenew <= 0 {
		cfg.ReadRenew = defaultReadRenew
	}
	group, err := s.node.Join(ctx, cfg.ServerGroup, cfg.Contact, cfg.GCS)
	if err != nil {
		return nil, fmt.Errorf("core: closed bind %q: %w", cfg.ServerGroup, err)
	}
	b := &Binding{
		svc:       s,
		cfg:       cfg,
		group:     group,
		rm:        ids.MinProcess(members), // informational: the group leader
		sgMembers: members,
		servers:   members,
		brokenCh:  make(chan struct{}),
		viewCh:    make(chan struct{}, 1),
		window:    make(chan struct{}, windowOf(cfg)),
		loopDone:  make(chan struct{}),
	}
	b.view = group.View()
	b.refreshReadPoolLocked()
	go b.clientLoop()
	return b, nil
}

// pullServers issues the control binds that make the request manager join
// the client/server group, in parallel (the paper\'s multithreaded measure
// for a synchronous-only ORB).
func (s *Service) pullServers(ctx context.Context, b *Binding, gid ids.GroupID, targets []ids.ProcessID, gcfg gcs.GroupConfig) ([]ids.ProcessID, error) {
	req := encodeBindRequest(&bindRequest{
		Group:       gid,
		ServerGroup: b.cfg.ServerGroup,
		Contact:     s.ID(),
		Style:       b.cfg.Style,
		AsyncFwd:    b.cfg.AsyncForward,
		Config:      gcfg,
	})
	var (
		mu    sync.Mutex
		bound []ids.ProcessID
		wg    sync.WaitGroup
	)
	for _, t := range targets {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.invokeControl(ctx, t, "bind", req); err == nil {
				mu.Lock()
				bound = append(bound, t)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(bound) == 0 {
		return nil, fmt.Errorf("core: bind %q: %w", b.cfg.ServerGroup, ErrNoServers)
	}
	return ids.SortProcesses(bound), nil
}

// awaitFormation waits until every bound server appears in the
// client/server group's view.
func (b *Binding) awaitFormation(ctx context.Context) error {
	for {
		v := b.group.View()
		all := true
		for _, srv := range b.servers {
			if !v.Contains(srv) {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: client/server group formation: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// RequestManager returns the member acting as request manager (open
// style), or the group anchor (closed style).
func (b *Binding) RequestManager() ids.ProcessID { return b.rm }

// Group exposes the client/server group (for tests and diagnostics).
func (b *Binding) Group() *gcs.Group { return b.group }

// KnownServers returns the server group membership observed at bind time.
func (b *Binding) KnownServers() []ids.ProcessID {
	out := make([]ids.ProcessID, len(b.sgMembers))
	copy(out, b.sgMembers)
	return out
}

// Servers returns the live servers reachable through the binding: for an
// open binding, the members of the client/server group besides the client;
// for a closed binding, the known servers still present in the (shared)
// group view — the view also contains this client and possibly other
// closed clients, which must not count towards reply quorums.
func (b *Binding) Servers() []ids.ProcessID {
	me := b.svc.ID()
	b.mu.Lock()
	v := b.view
	b.mu.Unlock()
	var out []ids.ProcessID
	if b.cfg.Style == Closed {
		for _, m := range b.sgMembers {
			if m != me && v.Contains(m) {
				out = append(out, m)
			}
		}
		return out
	}
	for _, m := range v.Members {
		if m != me {
			out = append(out, m)
		}
	}
	return out
}

// Broken reports whether the binding has lost its request manager (open)
// or all of its servers (closed).
func (b *Binding) Broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}

// Close departs the client/server group; the servers observe the view
// change and release their end.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.markBrokenLocked()
	b.mu.Unlock()
	err := b.group.Leave()
	<-b.loopDone
	return err
}

func (b *Binding) markBrokenLocked() {
	if !b.broken {
		b.broken = true
		close(b.brokenCh)
	}
}

// clientLoop consumes the client/server group's delivery stream, routing
// aggregated replies and watching the membership.
func (b *Binding) clientLoop() {
	defer close(b.loopDone)
	me := b.svc.ID()
	// The event stream replays history from the founding singleton view;
	// membership judgements only start at the fully-formed view observed
	// by awaitFormation.
	formedSeq := b.group.View().Seq
	in := ids.NewInterner()
	var env envelope
	for ev := range b.group.Events() {
		if ev.Type == gcs.EventView && ev.View.Seq < formedSeq {
			continue
		}
		switch ev.Type {
		case gcs.EventDeliver:
			if ev.Deliver.Sender == me {
				continue
			}
			if decodePayload(ev.Deliver.Payload, &env, in) != nil || env.kind != payloadReplySet {
				continue
			}
			b.svc.routeReplySet(env.set.Call, gatherSet(&env.set, b.noteStamp))
		case gcs.EventView:
			b.onView(ev.View)
		}
	}
	b.mu.Lock()
	b.markBrokenLocked()
	b.mu.Unlock()
}

// onView reacts to a membership change of the client/server group. The
// cached view and the broken judgement change in the same critical
// section, so Servers and Broken can never contradict each other
// mid-transition (the rebind race the view cache exists to close).
func (b *Binding) onView(v *gcs.View) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.view = v.Clone()
	b.refreshReadPoolLocked()
	switch b.cfg.Style {
	case Open:
		if !v.Contains(b.rm) {
			// The request manager failed or disconnected: the binding is
			// disbanded and the client must rebind (paper §2.1).
			b.markBrokenLocked()
		}
	case Closed:
		// Server failures are masked; the binding only breaks once every
		// known server has gone.
		alive := 0
		for _, m := range b.sgMembers {
			if v.Contains(m) {
				alive++
			}
		}
		if alive == 0 {
			b.markBrokenLocked()
		}
	}
	select {
	case b.viewCh <- struct{}{}:
	default:
	}
}

// SessionStamp returns the binding's session token: the newest applied
// stamp observed in any reply. Reads default their session floor to it,
// and a smart proxy carries it into its replacement binding on rebind.
func (b *Binding) SessionStamp() vclock.Stamp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sessStamp
}

// noteStamp folds one reply's applied stamp into the session token.
func (b *Binding) noteStamp(s vclock.Stamp) {
	if s == (vclock.Stamp{}) {
		return
	}
	b.mu.Lock()
	if b.sessStamp.Less(s) {
		b.sessStamp = s
	}
	b.mu.Unlock()
}

// Read serves one read-only invocation outside the ordering layer
// (Invoker surface): a point-to-point control call on one replica's NSO,
// never an ordered multicast. Consistency resolves per call (WithConsistency)
// over the binding default (BindConfig.ReadConsistency) over Leased; the
// session floor defaults to the binding's session stamp except for Stale
// reads (WithMinStamp overrides either way). When every replica refuses a
// leased read — expired leases during a partition or view change — the
// read escalates once to Linearizable at the ordering authority, which is
// at least as fresh as what the caller asked for.
func (b *Binding) Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error) {
	o := resolveCallOpts(opts)
	cons := o.consistency
	if cons == 0 {
		cons = b.cfg.ReadConsistency
	}
	if cons == 0 {
		cons = Leased
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	min := o.minStamp
	if !o.hasMin && cons != Stale {
		min = b.SessionStamp()
	}

	b.mu.Lock()
	closed, broken := b.closed, b.broken
	b.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if broken {
		return nil, ErrBindingBroken
	}

	start := time.Now()
	payload, final, err := b.readOnce(ctx, cons, method, args, min, o.maxStale, uint64(o.trace))
	if err != nil && !final && cons == Leased {
		payload, _, err = b.readOnce(ctx, Linearizable, method, args, min, 0, uint64(o.trace))
	}
	b.svc.obs.Tracer.Record(obs.Span{
		Trace: o.trace,
		Stage: "client.read",
		Proc:  string(b.svc.ID()),
		Depth: 0,
		Start: start,
		Dur:   time.Since(start),
		Note:  consistencyNote(cons),
	})
	return payload, err
}

// consistencyNote is the client.read span note for one consistency.
func consistencyNote(c Consistency) string {
	switch c {
	case Linearizable:
		return "consistency=linearizable"
	case Leased:
		return "consistency=leased"
	case Stale:
		return "consistency=stale"
	}
	return "consistency=" + c.String()
}

// readOnce encodes the request once and tries each candidate replica in
// turn. final reports that the error is not improvable by escalating the
// consistency (an application error, a disabled read path, a spent
// context); everything else — lease refusals, session floors out of
// reach, transport failures — leaves escalation open to the caller.
func (b *Binding) readOnce(ctx context.Context, cons Consistency, method string, args []byte, min vclock.Stamp, maxStale time.Duration, trace uint64) (payload []byte, final bool, err error) {
	req := encodeReadRequest(&readRequest{
		Group:       b.cfg.ServerGroup,
		Method:      method,
		Args:        args,
		Consistency: cons,
		MaxStale:    int64(maxStale),
		MinStamp:    min,
		Trace:       trace,
	})
	pool, first := b.readTargets(cons)
	if len(pool) == 0 {
		return nil, true, ErrNoServers
	}
	var lastErr error
	leaseRefused := false
	for i := range pool {
		t := pool[(first+i)%len(pool)]
		raw, cerr := b.svc.invokeControl(ctx, t, "read", req)
		if cerr != nil {
			if ctx.Err() != nil {
				return nil, true, ctx.Err()
			}
			lastErr = cerr
			continue
		}
		rep, derr := decodeReadReply(raw)
		if derr != nil {
			lastErr = derr
			continue
		}
		switch rep.Code {
		case readOK:
			b.noteStamp(rep.Stamp)
			return rep.Payload, true, nil
		case readErrApp:
			b.noteStamp(rep.Stamp)
			return nil, true, fmt.Errorf("core: read %s at %s: %s", method, t, rep.Err)
		case readErrDisabled:
			return nil, true, ErrReadDisabled
		case readErrLease:
			leaseRefused = true
			lastErr = fmt.Errorf("core: read at %s: %s", t, rep.Err)
		default: // readErrNotSeq, readErrMinStamp, readErrRetry
			lastErr = fmt.Errorf("core: read at %s: %s", t, rep.Err)
		}
	}
	if leaseRefused {
		return nil, false, fmt.Errorf("%w: %v", ErrLeaseExpired, lastErr)
	}
	return nil, false, lastErr
}

// refreshReadPoolLocked rebuilds the sorted replica pool reads choose
// from (b.mu held; called at bind time and on every view change). Reads
// are point-to-point, so the pool is the whole server group — not the
// client/server group, which for an open binding holds only the request
// manager. A closed binding filters its bind-time membership by the live
// view, falling back to the bind-time membership when that leaves none.
// The pool is replaced, never modified, so readers may keep a snapshot.
func (b *Binding) refreshReadPoolLocked() {
	var pool []ids.ProcessID
	if b.cfg.Style == Closed {
		me := b.svc.ID()
		for _, m := range b.sgMembers {
			if m != me && b.view.Contains(m) {
				pool = append(pool, m)
			}
		}
	}
	if len(pool) == 0 {
		pool = b.KnownServers()
	}
	b.readPool = ids.SortProcesses(pool)
}

// readTargets returns the replica pool for one read and the position to
// start from; the caller tries pool[(first+i)%len(pool)] in turn.
// Linearizable reads go lowest-identifier first (that member is the
// sequencer, the only replica that can serve them without a redirect);
// leased and stale reads rotate, advancing the favourite every ReadRenew.
func (b *Binding) readTargets(cons Consistency) (pool []ids.ProcessID, first int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pool = b.readPool
	if cons == Linearizable || len(pool) < 2 {
		return pool, 0
	}
	now := time.Now()
	if b.readPickAt.IsZero() || now.Sub(b.readPickAt) >= b.cfg.ReadRenew {
		b.readIdx++
		b.readPickAt = now
	}
	return pool, b.readIdx % len(pool)
}

// Call performs one invocation and blocks for the mode's reply quorum
// (Invoker surface). It is InvokeAsync awaited in place, without the
// future: it occupies one window slot for its duration, and the reply
// wait runs on the caller's goroutine.
func (b *Binding) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	o := resolveCallOpts(opts)
	w, start, err := b.launch(ctx, method, args, &o)
	if err != nil || w == nil {
		return nil, err
	}
	replies, err := b.await(ctx, w, o.mode)
	b.finish(&o, start, err)
	return replies, err
}

// InvokeAsync launches one invocation and returns its future. The
// request is multicast synchronously (so a pipelining client's issue
// order is its per-sender FIFO order on the wire); gathering the replies
// happens in the background and completes the future. A full
// outstanding-call window blocks here until a slot frees — that is the
// pipelining backpressure.
func (b *Binding) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	o := resolveCallOpts(opts)
	w, start, err := b.launch(ctx, method, args, &o)
	if err != nil {
		return nil, err
	}
	c := newCallFuture(o.call, o.mode, ctx)
	if w == nil {
		c.complete(nil, nil)
		return c, nil
	}
	go func() {
		replies, err := b.await(c.ctx, w, o.mode)
		b.finish(&o, start, err)
		c.complete(replies, err)
	}()
	return c, nil
}

// launch is the first half of Call and InvokeAsync: it fills the call
// identifier and trace, takes a window slot, registers the reply waiter
// and multicasts the request. It returns the waiter, or nil once a
// one-way call is on the wire (complete: nothing to wait for). On error
// everything it took is released and the call is recorded as failed.
func (b *Binding) launch(ctx context.Context, method string, args []byte, o *callOpts) (*callWaiter, time.Time, error) {
	if !o.hasCall {
		o.call = b.svc.newCall()
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, time.Time{}, ErrClosed
	}
	if b.broken {
		b.mu.Unlock()
		return nil, time.Time{}, ErrBindingBroken
	}
	b.mu.Unlock()

	// Acquire an outstanding-call slot (window backpressure).
	select {
	case b.window <- struct{}{}:
	case <-b.brokenCh:
		return nil, time.Time{}, ErrBindingBroken
	case <-ctx.Done():
		return nil, time.Time{}, ctx.Err()
	}
	b.svc.metrics.asyncCalls.Inc()
	b.svc.metrics.asyncInflightHigh.SetMax(int64(len(b.window)))

	var w *callWaiter
	if o.mode != OneWay {
		w = b.svc.registerWaiter(o.call, b.cfg.Style == Closed)
	}
	// Keep the group's failure detection alive while we wait: an idle
	// event-driven group would otherwise never notice a request manager
	// that died after the request stabilised but before replying.
	b.group.Attend()

	b.svc.frRecord(flight.EvCallStart, uint64(o.trace), uint64(o.mode), 0)
	start := time.Now()
	req := invRequest{
		Call:   o.call,
		Mode:   o.mode,
		Method: method,
		Args:   args,
		Client: b.svc.ID(),
		Style:  b.cfg.Style,
		Trace:  uint64(o.trace),
		SentAt: start.UnixNano(),
	}
	if err := b.group.Multicast(ctx, encodeRequest(&req)); err != nil {
		b.finish(o, start, err)
		if errors.Is(err, gcs.ErrLeft) {
			return nil, start, ErrBindingBroken
		}
		return nil, start, err
	}
	if w == nil {
		b.finish(o, start, nil)
	}
	return w, start, nil
}

// await gathers one call's replies: the request manager's aggregated set
// (open), or per-server direct replies up to the mode's quorum (closed).
func (b *Binding) await(ctx context.Context, w *callWaiter, mode ReplyMode) ([]Reply, error) {
	if b.cfg.Style == Open {
		return awaitSet(ctx, w, b.brokenCh)
	}
	return b.awaitDirectReplies(ctx, w, mode)
}

// finish releases what launch took — the group's attention, the waiter
// (recycled for a later call) and the window slot — and records the
// call's latency, span and journal event.
func (b *Binding) finish(o *callOpts, start time.Time, err error) {
	b.group.Unattend()
	if o.mode != OneWay {
		b.svc.dropWaiter(o.call)
	}
	<-b.window
	if errors.Is(err, context.Canceled) {
		b.svc.metrics.asyncCancelled.Inc()
	}
	d := time.Since(start)
	b.svc.metrics.invokeHist(o.mode).Observe(d)
	b.svc.obs.Tracer.Record(obs.Span{
		Trace: o.trace,
		Stage: "client.invoke",
		Proc:  string(b.svc.ID()),
		Depth: 0,
		Start: start,
		Dur:   d,
		Note:  invokeNote(o.mode, b.cfg.Style),
	})
	var failed uint64
	if err != nil {
		failed = 1
	}
	b.svc.frRecord(flight.EvCallDone, uint64(o.trace), failed, 0)
}

// invokeNotes holds the client.invoke span note of every reply mode and
// style, built once so recording a call builds no strings.
var invokeNotes = func() (notes [All + 1][Open + 1]string) {
	for m := OneWay; m <= All; m++ {
		for st := Closed; st <= Open; st++ {
			notes[m][st] = "mode=" + m.String() + " style=" + st.String()
		}
	}
	return notes
}()

// invokeNote is the client.invoke span note for one call.
func invokeNote(m ReplyMode, st Style) string {
	if m >= OneWay && m <= All && st >= Closed && st <= Open {
		return invokeNotes[m][st]
	}
	return "mode=" + m.String() + " style=" + st.String()
}

// awaitDirectReplies gathers closed-style per-server replies until the
// mode's quorum against the live membership is met. A server's later
// reply replaces its earlier one; the result is sorted by server.
func (b *Binding) awaitDirectReplies(ctx context.Context, w *callWaiter, mode ReplyMode) ([]Reply, error) {
	var got []invReply
	for {
		if len(got) >= mode.need(len(b.Servers())) && len(got) > 0 {
			slices.SortFunc(got, func(x, y invReply) int { return cmp.Compare(x.Server, y.Server) })
			out := make([]Reply, 0, len(got))
			for _, rep := range got {
				out = append(out, rep.toReply())
			}
			return out, nil
		}
		select {
		case rep := <-w.replies:
			b.noteStamp(rep.Stamp)
			got = putByServer(got, rep)
		case <-b.viewCh:
			// membership changed: quorum size re-evaluates
		case <-b.brokenCh:
			return nil, ErrBindingBroken
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// putByServer adds a server's reply to a gathered set, replacing an
// earlier reply from the same server.
func putByServer(got []invReply, rep invReply) []invReply {
	for i := range got {
		if got[i].Server == rep.Server {
			got[i] = rep
			return got
		}
	}
	return append(got, rep)
}
