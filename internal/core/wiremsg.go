package core

import (
	"fmt"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// Payload kinds multicast inside client/server, server and client monitor
// groups.
const (
	payloadRequest byte = iota + 1
	payloadReply
	payloadReplySet
	payloadHello
)

// encodeHello announces "I am a server" inside the server group; closed
// clients share that group, so the server roster (reply quorums, the
// membership answered by the "info" control call) is maintained by these
// announcements intersected with the group view.
func encodeHello() []byte { return []byte{payloadHello} }

// invRequest is a client request travelling through the invocation layer:
// multicast by the client in its client/server group, and re-issued by the
// request manager inside the server group (Forwarded set).
type invRequest struct {
	Call   ids.CallID
	Mode   ReplyMode
	Method string
	Args   []byte
	// Client is the ultimate invoker (for closed-style direct replies).
	Client ids.ProcessID
	// Style is how the client bound to the group.
	Style Style
	// Forwarded marks a request re-issued by a request manager inside the
	// server group.
	Forwarded bool
	// AsyncFwd marks the asynchronous-message-forwarding optimisation:
	// the request manager has already replied; other members execute for
	// state continuity but do not multicast replies.
	AsyncFwd bool
	// Trace is the end-to-end trace identifier stamped by the invoking
	// client (zero = untraced); every process touched by the call records
	// its protocol-stage spans under it.
	Trace uint64
	// SentAt is the client's send time (UnixNano) so the receiving side
	// can annotate transit time. Comparable only within one process (the
	// simulated networks) or between skew-synchronised hosts.
	SentAt int64
}

// invReply is one server's reply, multicast inside the server group (open
// style, for the request manager to gather) or sent point-to-point to the
// client (closed style).
type invReply struct {
	Call    ids.CallID
	Server  ids.ProcessID
	Payload []byte
	Err     string
	// Trace echoes the request's trace identifier.
	Trace uint64
	// ExecNanos is how long the servant ran on this server, reported so
	// the request manager can reconstruct remote execution spans without
	// cross-host clock comparisons.
	ExecNanos int64
	// Stamp is the total-order stamp of this call as applied at the
	// server — the session token the client's binding remembers for
	// read-your-writes (see Reply.Stamp).
	Stamp vclock.Stamp
}

// invReplySet is the request manager's aggregated answer, multicast in the
// client/server (or client monitor) group.
type invReplySet struct {
	Call    ids.CallID
	Replies []invReply
	// Err reports a request-manager-level failure (e.g. no servers).
	Err string
	// Trace echoes the request's trace identifier.
	Trace uint64
}

func (r invReply) toReply() Reply {
	out := Reply{Server: r.Server, Payload: r.Payload, Stamp: r.Stamp}
	if r.Err != "" {
		out.Err = fmt.Errorf("core: server %s: %s", r.Server, r.Err)
	}
	return out
}

func encodeRequest(m *invRequest) []byte {
	w := wire.GetWriter()
	w.Byte(payloadRequest)
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.Uvarint(uint64(m.Mode))
	w.String(m.Method)
	w.Blob(m.Args)
	w.String(string(m.Client))
	w.Uvarint(uint64(m.Style))
	w.Bool(m.Forwarded)
	w.Bool(m.AsyncFwd)
	w.Uvarint(m.Trace)
	w.Varint(m.SentAt)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func putReply(w *wire.Writer, m invReply) {
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.String(string(m.Server))
	w.Blob(m.Payload)
	w.String(m.Err)
	w.Uvarint(m.Trace)
	w.Varint(m.ExecNanos)
	putStamp(w, m.Stamp)
}

func getReply(r *wire.Reader, in *ids.Interner) invReply {
	return invReply{
		Call:      ids.CallID{Client: proc(r, in), Number: r.Uvarint()},
		Server:    proc(r, in),
		Payload:   r.BlobRef(),
		Err:       r.String(),
		Trace:     r.Uvarint(),
		ExecNanos: r.Varint(),
		Stamp:     getStamp(r, in),
	}
}

func putStamp(w *wire.Writer, s vclock.Stamp) {
	w.Uvarint(s.Time)
	w.String(string(s.Sender))
}

func getStamp(r *wire.Reader, in *ids.Interner) vclock.Stamp {
	return vclock.Stamp{Time: r.Uvarint(), Sender: proc(r, in)}
}

func encodeReply(m invReply) []byte {
	w := wire.GetWriter()
	w.Byte(payloadReply)
	putReply(w, m)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func encodeReplySet(m *invReplySet) []byte {
	w := wire.GetWriter()
	w.Byte(payloadReplySet)
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.Uvarint(uint64(len(m.Replies)))
	for _, rep := range m.Replies {
		putReply(w, rep)
	}
	w.String(m.Err)
	w.Uvarint(m.Trace)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

// envelope is one decoded invocation-layer payload, typed by kind (a
// payload* constant): req, rep or set holds the body, and hello carries
// none. Decoding fills an envelope in place, so a consumer that reuses
// one envelope boxes nothing into interfaces and allocates no message
// structs. set.Replies keeps its backing array across decodes; a consumer
// must be done with one set before decoding the next.
type envelope struct {
	kind byte
	req  invRequest
	rep  invReply
	set  invReplySet
}

// proc reads a length-prefixed process identifier through the interner.
func proc(r *wire.Reader, in *ids.Interner) ids.ProcessID {
	return ids.ProcessID(in.Intern(r.BlobRef()))
}

// decodePayload parses one invocation-layer multicast payload into env,
// interning process ids and method names through in (nil for a one-shot
// decode); each consumer goroutine keeps its own interner. Byte
// slices in the result alias b, as with every BlobRef decode: transport
// frames are never reused.
func decodePayload(b []byte, env *envelope, in *ids.Interner) error {
	var r wire.Reader
	r.Reset(b)
	env.kind = r.Byte()
	switch env.kind {
	case payloadRequest:
		env.req = invRequest{
			Call:      ids.CallID{Client: proc(&r, in), Number: r.Uvarint()},
			Mode:      ReplyMode(r.Uvarint()),
			Method:    in.Intern(r.BlobRef()),
			Args:      r.BlobRef(),
			Client:    proc(&r, in),
			Style:     Style(r.Uvarint()),
			Forwarded: r.Bool(),
			AsyncFwd:  r.Bool(),
			Trace:     r.Uvarint(),
			SentAt:    r.Varint(),
		}
	case payloadReply:
		env.rep = getReply(&r, in)
	case payloadHello:
	case payloadReplySet:
		set := &env.set
		set.Call = ids.CallID{Client: proc(&r, in), Number: r.Uvarint()}
		set.Replies = set.Replies[:0]
		n := r.Uvarint()
		if r.Err() == nil && n <= uint64(r.Remaining()) {
			for i := uint64(0); i < n; i++ {
				set.Replies = append(set.Replies, getReply(&r, in))
			}
		}
		set.Err = r.String()
		set.Trace = r.Uvarint()
	default:
		return fmt.Errorf("core: unknown payload kind %d", env.kind)
	}
	return r.Done()
}

// bindRequest is the control call ("newtop.bind") a client makes on a
// server's NSO to have it join a client/server or client monitor group.
type bindRequest struct {
	// Group is the client/server (or monitor) group to join.
	Group ids.GroupID
	// ServerGroup is the group being served.
	ServerGroup ids.GroupID
	// Contact is the member to join through (the client, usually).
	Contact ids.ProcessID
	// Style is the binding style.
	Style Style
	// Monitor marks a group-to-group client monitor group: replies go to
	// every member, duplicates are filtered by call id.
	Monitor bool
	// AsyncFwd requests the asynchronous-forwarding optimisation.
	AsyncFwd bool
	// Config is the gcs configuration of the group to join (must match
	// the client's; the invocation layer fills Leader with the request
	// manager for open bindings).
	Config gcs.GroupConfig
}

func encodeBindRequest(m *bindRequest) []byte {
	w := wire.GetWriter()
	w.String(string(m.Group))
	w.String(string(m.ServerGroup))
	w.String(string(m.Contact))
	w.Uvarint(uint64(m.Style))
	w.Bool(m.Monitor)
	w.Bool(m.AsyncFwd)
	w.Uvarint(uint64(m.Config.Order))
	w.String(string(m.Config.Leader))
	w.Uvarint(uint64(m.Config.Liveness))
	w.Varint(int64(m.Config.TimeSilence))
	w.Varint(int64(m.Config.SuspectTimeout))
	w.Varint(int64(m.Config.Resend))
	w.Varint(int64(m.Config.FlushTimeout))
	w.Varint(int64(m.Config.Tick))
	w.Bool(m.Config.Batch)
	w.Varint(int64(m.Config.BatchLimit))
	w.Varint(int64(m.Config.LeaseTicks))
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeBindRequest(b []byte) (*bindRequest, error) {
	r := wire.NewReader(b)
	m := &bindRequest{
		Group:       ids.GroupID(r.String()),
		ServerGroup: ids.GroupID(r.String()),
		Contact:     ids.ProcessID(r.String()),
		Style:       Style(r.Uvarint()),
		Monitor:     r.Bool(),
		AsyncFwd:    r.Bool(),
	}
	m.Config.Order = gcs.OrderMode(r.Uvarint())
	m.Config.Leader = ids.ProcessID(r.String())
	m.Config.Liveness = gcs.Liveness(r.Uvarint())
	m.Config.TimeSilence = durationFromVarint(r)
	m.Config.SuspectTimeout = durationFromVarint(r)
	m.Config.Resend = durationFromVarint(r)
	m.Config.FlushTimeout = durationFromVarint(r)
	m.Config.Tick = durationFromVarint(r)
	m.Config.Batch = r.Bool()
	m.Config.BatchLimit = int(r.Varint())
	m.Config.LeaseTicks = int(r.Varint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func durationFromVarint(r *wire.Reader) time.Duration { return time.Duration(r.Varint()) }

// readRequest is the control call ("newtop.read") a client makes on one
// replica's NSO: a read served outside the ordering layer, point-to-point
// over the ORB — never multicast, never sequenced.
type readRequest struct {
	// Group is the server group whose servant answers.
	Group ids.GroupID
	// Method/Args name the read-only servant method.
	Method string
	Args   []byte
	// Consistency is the read's consistency (never zero on the wire; the
	// binding resolves its default before encoding).
	Consistency Consistency
	// MaxStale tightens a leased read's staleness bound, in nanoseconds
	// (zero = use the group's configured lease bound). Sent as a duration
	// because the client does not know the server group's tick period;
	// the serving replica converts it to ticks of its own timer.
	MaxStale int64
	// MinStamp is the session floor: the replica waits until its
	// executed prefix covers this stamp before answering (read-your-
	// writes). Zero stamp = no floor.
	MinStamp vclock.Stamp
	// Trace is the end-to-end trace identifier (zero = untraced).
	Trace uint64
}

// readReply status codes. Anything but readOK means the payload is empty
// and the client should try another replica, escalate, or fail.
const (
	readOK byte = iota
	// readErrApp: the servant method itself returned an error (Err set).
	readErrApp
	// readErrLease: the replica's lease evidence is older than the bound.
	readErrLease
	// readErrNotSeq: a linearizable read reached a replica that is not
	// the ordering authority; retry at the sequencer.
	readErrNotSeq
	// readErrMinStamp: the replica could not cover the session floor
	// within its wait budget.
	readErrMinStamp
	// readErrDisabled: the server group has no read path (LeaseTicks=0).
	readErrDisabled
	// readErrRetry: transient replica-side failure (group flushing, view
	// change in progress); try another replica.
	readErrRetry
)

// readReply is the replica's answer to a readRequest.
type readReply struct {
	Code    byte
	Payload []byte
	// Err carries the application error for readErrApp (and a diagnostic
	// detail for the other non-OK codes).
	Err string
	// Stamp is the newest applied stamp of the serving replica — the
	// session token a read returns (so reads also advance the session).
	Stamp vclock.Stamp
	// AgeTicks/BoundTicks echo the serving replica's lease evidence for
	// observability: how stale the lease was and the bound it was checked
	// against. Zero for linearizable and stale reads.
	AgeTicks, BoundTicks uint64
}

func encodeReadRequest(m *readRequest) []byte {
	w := wire.GetWriter()
	w.String(string(m.Group))
	w.String(m.Method)
	w.Blob(m.Args)
	w.Uvarint(uint64(m.Consistency))
	w.Varint(m.MaxStale)
	putStamp(w, m.MinStamp)
	w.Uvarint(m.Trace)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeReadRequest(b []byte) (*readRequest, error) {
	r := wire.NewReader(b)
	m := &readRequest{
		Group:       ids.GroupID(r.String()),
		Method:      r.String(),
		Args:        r.BlobRef(),
		Consistency: Consistency(r.Uvarint()),
		MaxStale:    r.Varint(),
		MinStamp:    getStamp(r, nil),
		Trace:       r.Uvarint(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeReadReply(m *readReply) []byte {
	w := wire.GetWriter()
	w.Byte(m.Code)
	w.Blob(m.Payload)
	w.String(m.Err)
	putStamp(w, m.Stamp)
	w.Uvarint(m.AgeTicks)
	w.Uvarint(m.BoundTicks)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeReadReply(b []byte) (*readReply, error) {
	r := wire.NewReader(b)
	m := &readReply{
		Code:       r.Byte(),
		Payload:    r.BlobRef(),
		Err:        r.String(),
		Stamp:      getStamp(r, nil),
		AgeTicks:   r.Uvarint(),
		BoundTicks: r.Uvarint(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeProcs/decodeProcs carry member lists in ORB control replies.
func encodeProcs(ps []ids.ProcessID) []byte {
	w := wire.GetWriter()
	w.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.String(string(p))
	}
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeProcs(b []byte) ([]ids.ProcessID, error) {
	r := wire.NewReader(b)
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil, wire.ErrTooLarge
	}
	out := make([]ids.ProcessID, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, ids.ProcessID(r.String()))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
