package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/orb"
	"newtop/internal/transport"
	"newtop/internal/vclock"
)

// controlObject is the ORB servant every Service registers; clients use it
// to discover server-group membership, to pull servers into client/server
// groups, and to deliver closed-style direct replies.
const controlObject = "newtop"

// Service is one process's NewTop service object (NSO). It owns the
// process's transport endpoint, multiplexing it between the group
// communication service and the mini-ORB, and hosts any number of server
// roles and client bindings.
type Service struct {
	mux     *transport.Mux
	node    *gcs.Node
	orb     *orb.ORB
	obs     *obs.Obs
	metrics *coreMetrics
	fr      *flight.Recorder
	frProc  uint16

	mu       sync.Mutex
	servers  map[ids.GroupID]*Server
	waiters  map[ids.CallID]*callWaiter
	spare    []*callWaiter // recycled waiters (see dropWaiter)
	nextCall uint64
	closed   bool
}

// callWaiter receives the replies for one outstanding invocation.
// Waiters are recycled across calls: replies are only ever sent to a
// waiter under Service.mu while it is registered, and dropWaiter drains
// it under the same lock, so a recycled waiter never holds a reply meant
// for an earlier call.
type callWaiter struct {
	set     chan replySet // open style: the request manager's gathered answer
	replies chan invReply // closed style: per-server replies (nil until a closed call)
}

// replySet is a request manager's aggregated answer as the binding's
// delivery loop hands it to the waiting call: already converted to the
// caller's replies, so nothing of the decoder's reusable envelope
// crosses goroutines.
type replySet struct {
	replies []Reply
	err     string
}

// maxSpareWaiters bounds the recycled-waiter list; the live ones are
// bounded by the bindings' windows.
const maxSpareWaiters = 256

// NewService starts an NSO on the endpoint. The service owns the
// endpoint. Instruments register in the process-wide observability
// domain; use NewServiceObs to direct them elsewhere.
func NewService(ep transport.Endpoint) *Service { return NewServiceObs(ep, obs.Default()) }

// NewServiceObs is NewService with an explicit observability domain (the
// bench harness gives each experiment world its own).
func NewServiceObs(ep transport.Endpoint, o *obs.Obs) *Service {
	return NewServiceCfg(ep, o, gcs.NodeConfig{})
}

// NewServiceCfg is NewServiceObs with an explicit delivery-engine
// configuration for the underlying gcs node (newtop-node threads its
// -dispatch-workers flag through here).
func NewServiceCfg(ep transport.Endpoint, o *obs.Obs, nc gcs.NodeConfig) *Service {
	mux := transport.NewMuxObs(ep, o)
	s := &Service{
		mux:     mux,
		node:    gcs.NewNodeCfg(mux.Channel(transport.ProtoGCS), o, nc),
		orb:     orb.NewObs(mux.Channel(transport.ProtoORB), o),
		obs:     o,
		metrics: newCoreMetrics(o),
		fr:      o.Flight,
		frProc:  o.Flight.Proc(string(ep.ID())),
		servers: make(map[ids.GroupID]*Server),
		waiters: make(map[ids.CallID]*callWaiter),
	}
	s.orb.Register(controlObject, s.control)
	// The cross-group aggregate: every server role this service hosts,
	// summed field-wise and emitted as group="_total". On a sharded node
	// (one server group per shard) this is the fabric-wide view next to
	// the per-shard breakdown each role's own collector emits.
	o.Reg.SetCollector(s.aggCollectorKey(), func(emit func(name string, v int64)) {
		emitServerStats(emit, "_total", s.StatsTotal())
	})
	return s
}

// aggCollectorKey names the service's aggregate collector; keyed by
// process ID because bench worlds share one registry across services.
func (s *Service) aggCollectorKey() string {
	return "core_service_total_" + obs.Sanitize(string(s.mux.ID())) + "_"
}

// StatsTotal aggregates the group-communication counters of every server
// role this service currently hosts.
func (s *Service) StatsTotal() gcs.Stats {
	s.mu.Lock()
	servers := make([]*Server, 0, len(s.servers))
	for _, srv := range s.servers {
		servers = append(servers, srv)
	}
	s.mu.Unlock()
	var st gcs.Stats
	for _, srv := range servers {
		st = st.Plus(srv.Stats())
	}
	return st
}

// Obs returns the service's observability domain (registry + tracer).
func (s *Service) Obs() *obs.Obs { return s.obs }

// frRecord notes an invocation-layer flight event. MsgSeq carries the
// trace ID so journal entries join against the tracer's spans.
func (s *Service) frRecord(t flight.Type, trace, a, b uint64) {
	s.fr.Record(flight.Event{Type: t, Proc: s.frProc, Sender: flight.NoSender, MsgSeq: trace, A: a, B: b})
}

// ID returns the process identifier.
func (s *Service) ID() ids.ProcessID { return s.node.ID() }

// Node exposes the underlying group communication service (for peer
// participation groups, which need no invocation machinery).
func (s *Service) Node() *gcs.Node { return s.node }

// ORB exposes the underlying object request broker.
func (s *Service) ORB() *orb.ORB { return s.orb }

// Close shuts down every server role and binding, then the GCS node, the
// ORB and the endpoint.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	servers := make([]*Server, 0, len(s.servers))
	for _, srv := range s.servers {
		servers = append(servers, srv)
	}
	s.mu.Unlock()

	s.obs.Reg.DropCollector(s.aggCollectorKey())
	for _, srv := range servers {
		_ = srv.Close()
	}
	_ = s.node.Close()
	_ = s.orb.Close()
	return s.mux.Close()
}

// newCall allocates a fresh call identifier.
func (s *Service) newCall() ids.CallID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextCall++
	return ids.CallID{Client: s.ID(), Number: s.nextCall}
}

// registerWaiter installs the reply sink for one call, recycling a spare
// waiter when one is available. Closed-style calls gather per-server
// replies and need the direct-reply channel too.
func (s *Service) registerWaiter(call ids.CallID, direct bool) *callWaiter {
	s.mu.Lock()
	var w *callWaiter
	if n := len(s.spare); n > 0 {
		w = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	} else {
		w = &callWaiter{set: make(chan replySet, 1)}
	}
	if direct && w.replies == nil {
		w.replies = make(chan invReply, 64)
	}
	s.waiters[call] = w
	s.mu.Unlock()
	return w
}

// dropWaiter removes the reply sink for one call and recycles it. Once
// unregistered nothing can send to it, so draining it here leaves it
// empty for its next call.
func (s *Service) dropWaiter(call ids.CallID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.waiters[call]
	if w == nil {
		return
	}
	delete(s.waiters, call)
	drain(w.set)
	drain(w.replies)
	if len(s.spare) < maxSpareWaiters {
		s.spare = append(s.spare, w)
	}
}

// drain empties a buffered channel without blocking.
func drain[T any](ch chan T) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// routeReply hands a closed-style direct reply to its waiter.
func (s *Service) routeReply(rep invReply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.waiters[rep.Call]
	if w == nil || w.replies == nil {
		return // late reply after the caller completed or gave up
	}
	select {
	case w.replies <- rep:
	default: // waiter saturated; the call already has what it needs
	}
}

// routeReplySet hands an open-style aggregated answer to its waiter.
func (s *Service) routeReplySet(call ids.CallID, rs replySet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.waiters[call]
	if w == nil {
		return
	}
	select {
	case w.set <- rs:
	default:
	}
}

// gatherSet converts a decoded reply set into the answer a waiting call
// receives, folding every reply's applied stamp into the session token
// through note.
func gatherSet(set *invReplySet, note func(vclock.Stamp)) replySet {
	if set.Err != "" {
		return replySet{err: set.Err}
	}
	out := make([]Reply, 0, len(set.Replies))
	for _, rep := range set.Replies {
		note(rep.Stamp)
		out = append(out, rep.toReply())
	}
	return replySet{replies: out}
}

// awaitSet waits for a call's gathered answer (open style and
// group-to-group).
func awaitSet(ctx context.Context, w *callWaiter, broken <-chan struct{}) ([]Reply, error) {
	select {
	case rs := <-w.set:
		if rs.err != "" {
			return nil, fmt.Errorf("core: request manager: %s", rs.err)
		}
		if len(rs.replies) == 0 {
			return nil, errors.New("core: empty reply set")
		}
		return rs.replies, nil
	case <-broken:
		return nil, ErrBindingBroken
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// serverFor returns the local server role for a group.
func (s *Service) serverFor(gid ids.GroupID) *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.servers[gid]
}

// control is the "newtop" ORB servant.
func (s *Service) control(method string, args []byte) ([]byte, error) {
	switch method {
	case "info":
		srv := s.serverFor(ids.GroupID(args))
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", args)
		}
		return encodeProcs(srv.ServerRoster()), nil
	case "bind":
		req, err := decodeBindRequest(args)
		if err != nil {
			return nil, err
		}
		return nil, s.handleBind(req)
	case "state":
		srv := s.serverFor(ids.GroupID(args))
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", args)
		}
		snap, err := srv.takeSnapshot()
		if err != nil {
			return nil, err
		}
		return encodeStateSnapshot(snap), nil
	case "read":
		// The read path: a point-to-point read served outside the
		// ordering layer (see readserver.go). Refusals travel in-band in
		// the readReply code so the client can try another replica.
		req, err := decodeReadRequest(args)
		if err != nil {
			return nil, err
		}
		srv := s.serverFor(req.Group)
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", req.Group)
		}
		return encodeReadReply(srv.serveRead(req)), nil
	case "ping":
		return []byte("pong"), nil
	case "reply":
		r := wireReplyFromBytes(args)
		if r != nil {
			s.routeReply(*r)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("core: unknown control method %q", method)
	}
}

// wireReplyFromBytes decodes a direct reply delivered over the control
// object.
func wireReplyFromBytes(b []byte) *invReply {
	var env envelope
	if err := decodePayload(b, &env, nil); err != nil || env.kind != payloadReply {
		return nil
	}
	return &env.rep
}

// handleBind joins this server into a client/server (or client monitor)
// group and starts serving it.
func (s *Service) handleBind(req *bindRequest) error {
	srv := s.serverFor(req.ServerGroup)
	if srv == nil {
		return fmt.Errorf("core: not serving group %q", req.ServerGroup)
	}
	return srv.joinBindingGroup(req)
}

// sendDirectReply delivers a closed-style reply straight to the client's
// NSO (the paper's m5: one CORBA invocation from server to client).
func (s *Service) sendDirectReply(client ids.ProcessID, rep invReply) {
	_ = s.orb.InvokeOneWay(orb.Ref{Target: client, Object: controlObject}, "reply", encodeReply(rep))
}

// invokeControl performs a control call on a remote NSO.
func (s *Service) invokeControl(ctx context.Context, target ids.ProcessID, method string, args []byte) ([]byte, error) {
	return s.orb.Invoke(ctx, orb.Ref{Target: target, Object: controlObject}, method, args)
}

// ServerGroupMembers asks any member of a server group for its current
// membership.
func (s *Service) ServerGroupMembers(ctx context.Context, contact ids.ProcessID, group ids.GroupID) ([]ids.ProcessID, error) {
	b, err := s.invokeControl(ctx, contact, "info", []byte(group))
	if err != nil {
		return nil, err
	}
	return decodeProcs(b)
}

// defaultRMWait bounds how long a request manager gathers replies before
// answering with what it has.
const defaultRMWait = 10 * time.Second

// ensure the gcs config template carries the right defaults for
// request-reply groups: event-driven liveness unless the caller chose.
func requestReplyDefaults(cfg gcs.GroupConfig) gcs.GroupConfig {
	if cfg.Order == 0 {
		cfg.Order = gcs.OrderSequencer
	}
	if cfg.Liveness == 0 {
		cfg.Liveness = gcs.EventDriven
	}
	return cfg
}

// DebugNewCall exposes call allocation for white-box tests.
func (s *Service) DebugNewCall() ids.CallID { return s.newCall() }
