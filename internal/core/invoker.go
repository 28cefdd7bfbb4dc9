package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// Invoker is the single invocation surface shared by every client-side
// shape of the layer — Binding (one client/server group), Proxy (the
// self-rebinding smart proxy) and G2G (group-to-group through a client
// monitor group). The paper presents these as one facility with three
// configurations; the interface makes the code say the same thing, so a
// caller can be handed "something invokable" without caring which group
// topology sits underneath.
//
// Call blocks for the mode's reply quorum. InvokeAsync returns a *Call
// future immediately after the request is on the wire, enabling
// pipelining: many calls outstanding on one binding, bounded by the
// binding's window (BindConfig.Window). Read is the second delivery
// path: reads never enter the ordering layer — a leased or stale read is
// served point-to-point from one replica's delivered prefix, and a
// linearizable read costs one stability-frontier handshake at the
// ordering authority instead of an ordered multicast.
type Invoker interface {
	// Call performs one invocation and blocks for the replies required
	// by the reply mode (default wait-for-first; see WithMode). Writes
	// (anything that mutates servant state) go through Call or
	// InvokeAsync: both are ordered multicasts.
	Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error)
	// InvokeAsync launches one invocation and returns its future. The
	// request is multicast before InvokeAsync returns (so the issue
	// order of a pipelining client is its delivery order at the
	// servers); the replies arrive through the future.
	InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error)
	// Read serves one read-only invocation outside the ordering layer,
	// at the consistency selected by WithConsistency (the binding's
	// default, normally Leased, when unspecified). The method must not
	// mutate servant state — the call may execute at a single replica
	// and is never recorded in the group's total order.
	Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error)
	// Close releases the underlying group resources.
	Close() error
}

var (
	_ Invoker = (*Binding)(nil)
	_ Invoker = (*Proxy)(nil)
	_ Invoker = (*G2G)(nil)
)

// ErrNeedCallNumber is returned by G2G invocations issued without
// WithCallID: every member of the client group must use the same
// deterministic per-call number or the request manager cannot filter the
// duplicate copies (§4.3).
var ErrNeedCallNumber = errors.New("core: group-to-group calls need WithCallID (a deterministic per-call number shared by the client group)")

// Consistency selects what a Read is allowed to return; it is the read
// axis of the paper's per-invocation flexibility. The zero value means
// "use the binding's configured default".
type Consistency int

const (
	// Linearizable reads reflect every write that completed before the
	// read began: the read runs at the ordering authority after a
	// stability-frontier handshake (gcs.ReadIndex) — still no ordered
	// multicast, but one frontier wait per read.
	Linearizable Consistency = iota + 1
	// Leased reads are served from any replica's delivered prefix while
	// that replica holds a read lease: staleness is bounded by the lease
	// (LeaseTicks × Tick, tightened per-call by WithMaxStaleness), and
	// the session token still guarantees read-your-writes.
	Leased
	// Stale reads are served from any replica's delivered prefix with no
	// lease check at all: best-effort freshness, maximum availability.
	Stale
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case Linearizable:
		return "linearizable"
	case Leased:
		return "leased"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// callOpts is the resolved option set of one invocation.
type callOpts struct {
	mode    ReplyMode
	call    ids.CallID
	hasCall bool
	trace   obs.TraceID

	// Read-path options (ignored by Call/InvokeAsync).
	consistency Consistency
	maxStale    time.Duration
	minStamp    vclock.Stamp
	hasMin      bool

	// Routing options (consumed by ShardedBinding; ignored by single-group
	// invokers).
	key    string
	hasKey bool
}

// CallOption configures one invocation (see WithMode, WithCallID,
// WithTrace). An option is a plain value naming the one field it sets,
// not a closure: resolving options then neither allocates a closure per
// option nor forces the resolved set to the heap, which an indirect call
// through a func option would.
type CallOption struct {
	field optField
	v     callOpts // only the field named by field is meaningful
}

// optField names the callOpts field one CallOption sets.
type optField uint8

const (
	optMode optField = iota + 1
	optCall
	optTrace
	optConsistency
	optMaxStale
	optMinStamp
	optKey
)

// WithMode selects the reply mode (one-way, wait-for-first,
// wait-for-majority, wait-for-all). The default is First.
func WithMode(m ReplyMode) CallOption {
	return CallOption{field: optMode, v: callOpts{mode: m}}
}

// WithCallID pins the invocation's call identifier instead of allocating
// a fresh one. Reusing an identifier after a rebind never re-executes at
// the servers (§4.1's retained replies) — the smart proxy relies on
// this. For G2G the identifier's Number is the deterministic per-call
// number every client-group member must share; the Client component is
// overridden with the monitor group's identity.
func WithCallID(id ids.CallID) CallOption {
	return CallOption{field: optCall, v: callOpts{call: id}}
}

// WithTrace threads an explicit trace identifier through the invocation
// instead of allocating (Binding/Proxy) or deriving (G2G) one.
func WithTrace(t obs.TraceID) CallOption {
	return CallOption{field: optTrace, v: callOpts{trace: t}}
}

// WithConsistency selects the consistency of one Read (Linearizable,
// Leased or Stale), overriding the binding's configured default.
func WithConsistency(c Consistency) CallOption {
	return CallOption{field: optConsistency, v: callOpts{consistency: c}}
}

// WithMaxStaleness tightens a Leased read's staleness bound for this call
// only: the serving replica refuses unless its lease evidence is fresher
// than d (it can never loosen the configured lease bound). Ignored by
// Linearizable and Stale reads.
func WithMaxStaleness(d time.Duration) CallOption {
	return CallOption{field: optMaxStale, v: callOpts{maxStale: d}}
}

// WithKey pins the routing key of one invocation on a sharded binding:
// the call goes to the group owning key on the consistent-hash ring,
// bypassing the binding's configured key extractor. Single-group invokers
// (Binding, Proxy, G2G) ignore it.
func WithKey(key string) CallOption {
	return CallOption{field: optKey, v: callOpts{key: key}}
}

// WithMinStamp overrides the read's session floor: the serving replica
// waits until its executed prefix covers stamp s before answering. The
// default floor is the binding's own session stamp (the newest write
// this binding has seen applied), which is what gives a session
// read-your-writes across replicas; passing an explicit stamp threads a
// token between bindings or processes. The zero stamp waives the floor.
func WithMinStamp(s vclock.Stamp) CallOption {
	return CallOption{field: optMinStamp, v: callOpts{minStamp: s}}
}

// resolveCallOpts folds the options over the defaults.
func resolveCallOpts(opts []CallOption) callOpts {
	o := callOpts{mode: First}
	for i := range opts {
		opt := &opts[i]
		switch opt.field {
		case optMode:
			o.mode = opt.v.mode
		case optCall:
			o.call, o.hasCall = opt.v.call, true
		case optTrace:
			o.trace = opt.v.trace
		case optConsistency:
			o.consistency = opt.v.consistency
		case optMaxStale:
			o.maxStale = opt.v.maxStale
		case optMinStamp:
			o.minStamp, o.hasMin = opt.v.minStamp, true
		case optKey:
			o.key, o.hasKey = opt.v.key, true
		}
	}
	return o
}
