// Package transport defines the point-to-point messaging abstraction the
// group communication service and the mini-ORB are built on, plus a
// protocol multiplexer so both can share a single endpoint (the paper's
// NewTop service object owns one communication endpoint per process).
//
// Two implementations exist: memnet (in-memory, driven by the netsim
// latency model; used by tests and the evaluation harness) and tcpnet
// (real TCP; used for actual deployments).
package transport

import (
	"errors"

	"newtop/internal/ids"
)

// ErrClosed is returned by Send after an endpoint has been closed.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownPeer is returned when the destination process is not known to
// the transport.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrBadFrame is returned by FrameSender.SendFrame when the frame does not
// start with the sender's channel byte.
var ErrBadFrame = errors.New("transport: frame lacks its channel byte")

// Inbound is one received message.
type Inbound struct {
	From    ids.ProcessID
	Payload []byte
}

// Endpoint is a bidirectional, per-link-FIFO, best-effort message channel
// owned by exactly one process. Payload bytes passed to Send must not be
// mutated afterwards, and a sender may pass the same bytes to several
// Sends (one encode, many destinations). Received payloads are the
// receiver's to keep but read-only: an in-process transport hands every
// destination of one send the same bytes.
type Endpoint interface {
	// ID returns the owning process identifier.
	ID() ids.ProcessID
	// Send queues payload for delivery to the named process. Delivery is
	// FIFO per (sender, receiver) pair but not reliable: messages to
	// crashed, partitioned or unknown peers are silently dropped, exactly
	// like a datagram over a failed path. Send only returns an error for
	// local conditions (endpoint closed, peer unresolvable).
	Send(to ids.ProcessID, payload []byte) error
	// Inbound returns the stream of received messages. The channel is
	// closed when the endpoint closes.
	Inbound() <-chan Inbound
	// Close releases the endpoint. Close is idempotent.
	Close() error
}

// FrameSender is implemented by endpoints that prefix every payload with
// a one-byte channel header (the mux's sub-channels). A layer that builds
// its own frames in a pooled encoder writes FrameByte as byte 0 and hands
// the whole frame to SendFrame, which transmits it without the copy Send
// has to make to prepend the header. Receivers see exactly the bytes Send
// would have produced.
type FrameSender interface {
	// FrameByte is the header byte every frame must start with.
	FrameByte() byte
	// SendFrame transmits frame, which must start with FrameByte and
	// follows Send's ownership rules.
	SendFrame(to ids.ProcessID, frame []byte) error
}

// Framing is how a protocol layer puts its own encoded frames on an
// endpoint: behind a FrameSender the frame carries the header byte and
// goes out uncopied; on a bare endpoint the frame is the message alone.
//
// The zero Framing has no header; Send must not be called on it.
type Framing struct {
	ep  Endpoint
	fs  FrameSender
	hdr byte
}

// FramingFor resolves the framing of ep once, so encoders read the header
// byte without an interface call per frame.
func FramingFor(ep Endpoint) Framing {
	f := Framing{ep: ep}
	if fs, ok := ep.(FrameSender); ok {
		f.fs, f.hdr = fs, fs.FrameByte()
	}
	return f
}

// Header reports the header byte a frame must start with, if any.
func (f Framing) Header() (byte, bool) { return f.hdr, f.fs != nil }

// HeaderLen is the number of header bytes in front of every frame.
func (f Framing) HeaderLen() int {
	if f.fs == nil {
		return 0
	}
	return 1
}

// Send transmits a frame built with Header.
func (f Framing) Send(to ids.ProcessID, frame []byte) error {
	if f.fs == nil {
		return f.ep.Send(to, frame)
	}
	return f.fs.SendFrame(to, frame)
}
