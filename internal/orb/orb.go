// Package orb is a miniature object request broker — the substrate the
// paper obtained from omniORB2. It provides named servant objects,
// synchronous request/reply invocation with correlation, one-way
// (asynchronous) invocation, and multithreaded dispatch (one goroutine per
// inbound request, exactly the measure the paper describes for obtaining
// parallelism from a synchronous-only ORB).
package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/transport"
	"newtop/internal/wire"
)

// Errors returned by invocations.
var (
	// ErrClosed is returned once the ORB has shut down.
	ErrClosed = errors.New("orb: closed")
	// ErrNoObject is the error a target raises for an unknown object; it
	// surfaces at the caller inside a *RemoteError.
	ErrNoObject = errors.New("orb: no such object")
)

// RemoteError is an application or dispatch error raised by the target
// process and carried back to the invoker.
type RemoteError struct {
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "orb: remote: " + e.Msg }

// Handler implements a servant: it processes one invocation and returns
// the reply payload. Handlers run concurrently (one goroutine per inbound
// request) and must be safe for concurrent use.
type Handler func(method string, args []byte) ([]byte, error)

// Ref names a remote object: the process hosting it and its object name.
type Ref struct {
	Target ids.ProcessID
	Object string
}

// String implements fmt.Stringer.
func (r Ref) String() string { return fmt.Sprintf("%s@%s", r.Object, r.Target) }

const (
	kindRequest byte = iota + 1
	kindOneWay
	kindReply
)

const (
	statusOK byte = iota + 1
	statusError
)

type response struct {
	payload []byte
	err     error
}

// ORB is one process's object request broker.
type ORB struct {
	ep transport.Endpoint
	// framing puts encoded frames on ep: behind a mux channel every frame
	// carries the channel byte and is sent uncopied.
	framing transport.Framing

	// requests counts inbound invocations dispatched to servants;
	// dispatch is the servant execution latency; inflightHigh is the
	// high-water mark of outstanding outbound calls awaiting replies.
	requests     *obs.Counter
	dispatchLat  *obs.Histogram
	inflightHigh *obs.Gauge

	mu       sync.Mutex
	servants map[string]Handler
	calls    map[uint64]chan response
	nextReq  uint64
	closed   bool

	wg       sync.WaitGroup
	recvDone chan struct{}
}

// New starts an ORB on ep. The ORB owns ep and closes it on Close.
// Instruments register in the process-wide observability domain; use
// NewObs to direct them elsewhere.
func New(ep transport.Endpoint) *ORB { return NewObs(ep, obs.Default()) }

// NewObs is New with an explicit observability domain.
func NewObs(ep transport.Endpoint, ob *obs.Obs) *ORB {
	o := &ORB{
		ep:           ep,
		framing:      transport.FramingFor(ep),
		requests:     ob.Reg.Counter("orb_requests"),
		dispatchLat:  ob.Reg.Histogram("orb_dispatch_latency"),
		inflightHigh: ob.Reg.Gauge("orb_inflight_highwater"),
		servants:     make(map[string]Handler),
		calls:        make(map[uint64]chan response),
		recvDone:     make(chan struct{}),
	}
	go o.recvLoop()
	return o
}

// frameWriter returns a pooled writer primed with the endpoint's frame
// header, if any (see transport.Framing).
func (o *ORB) frameWriter() *wire.Writer {
	w := wire.GetWriter()
	if hdr, ok := o.framing.Header(); ok {
		w.Byte(hdr)
	}
	return w
}

// ID returns the hosting process identifier.
func (o *ORB) ID() ids.ProcessID { return o.ep.ID() }

// Register installs (or replaces) the servant for an object name.
func (o *ORB) Register(object string, h Handler) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servants[object] = h
}

// Unregister removes a servant.
func (o *ORB) Unregister(object string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.servants, object)
}

// Invoke performs a synchronous invocation on a remote object and returns
// its reply. It fails with ctx's error on timeout/cancellation (the
// transport is best-effort; a crashed or partitioned target simply never
// replies) and with *RemoteError when the target raised one.
func (o *ORB) Invoke(ctx context.Context, ref Ref, method string, args []byte) ([]byte, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, ErrClosed
	}
	o.nextReq++
	reqID := o.nextReq
	ch := make(chan response, 1)
	o.calls[reqID] = ch
	o.inflightHigh.SetMax(int64(len(o.calls)))
	o.mu.Unlock()

	defer func() {
		o.mu.Lock()
		delete(o.calls, reqID)
		o.mu.Unlock()
	}()

	w := o.frameWriter()
	w.Byte(kindRequest)
	w.Uvarint(reqID)
	w.String(ref.Object)
	w.String(method)
	w.Blob(args)
	// Transports retain the frame by reference, so detach before recycling.
	frame := w.Detach()
	wire.PutWriter(w)
	if err := o.framing.Send(ref.Target, frame); err != nil {
		return nil, fmt.Errorf("invoke %s: %w", ref, err)
	}

	select {
	case resp := <-ch:
		return resp.payload, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// InvokeOneWay performs an asynchronous invocation: no reply is generated
// and delivery is best-effort.
func (o *ORB) InvokeOneWay(ref Ref, method string, args []byte) error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return ErrClosed
	}
	o.mu.Unlock()

	w := o.frameWriter()
	w.Byte(kindOneWay)
	w.Uvarint(0)
	w.String(ref.Object)
	w.String(method)
	w.Blob(args)
	frame := w.Detach()
	wire.PutWriter(w)
	if err := o.framing.Send(ref.Target, frame); err != nil {
		return fmt.Errorf("invoke oneway %s: %w", ref, err)
	}
	return nil
}

// Close shuts the ORB down: in-flight outbound calls fail with ErrClosed,
// inbound dispatch drains, and the endpoint closes.
func (o *ORB) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		<-o.recvDone
		return nil
	}
	o.closed = true
	for id, ch := range o.calls {
		ch <- response{err: ErrClosed}
		delete(o.calls, id)
	}
	o.mu.Unlock()

	err := o.ep.Close()
	<-o.recvDone
	o.wg.Wait()
	return err
}

func (o *ORB) recvLoop() {
	defer close(o.recvDone)
	for in := range o.ep.Inbound() {
		o.dispatch(in)
	}
}

func (o *ORB) dispatch(in transport.Inbound) {
	r := wire.NewReader(in.Payload)
	kind := r.Byte()
	reqID := r.Uvarint()
	switch kind {
	case kindRequest, kindOneWay:
		object := r.String()
		method := r.String()
		// Zero-copy: args alias the inbound frame, which is per-message
		// and stays alive as long as the servant holds the slice.
		args := r.BlobRef()
		if r.Done() != nil {
			return
		}
		o.mu.Lock()
		h := o.servants[object]
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return
		}
		o.requests.Inc()
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serve(in.From, kind, reqID, object, h, method, args)
		}()
	case kindReply:
		status := r.Byte()
		payload := r.BlobRef()
		errMsg := r.String()
		if r.Done() != nil {
			return
		}
		o.mu.Lock()
		ch := o.calls[reqID]
		delete(o.calls, reqID)
		o.mu.Unlock()
		if ch == nil {
			return // late reply after caller gave up
		}
		if status == statusOK {
			ch <- response{payload: payload}
		} else {
			ch <- response{err: &RemoteError{Msg: errMsg}}
		}
	}
}

// serve runs one servant invocation and, for two-way requests, sends the
// reply.
func (o *ORB) serve(from ids.ProcessID, kind byte, reqID uint64, object string, h Handler, method string, args []byte) {
	var payload []byte
	var err error
	if h == nil {
		err = fmt.Errorf("%w: %q", ErrNoObject, object)
	} else {
		start := time.Now()
		payload, err = h(method, args)
		o.dispatchLat.Observe(time.Since(start))
	}
	if kind == kindOneWay {
		return
	}
	w := o.frameWriter()
	w.Byte(kindReply)
	w.Uvarint(reqID)
	if err != nil {
		w.Byte(statusError)
		w.Blob(nil)
		w.String(err.Error())
	} else {
		w.Byte(statusOK)
		w.Blob(payload)
		w.String("")
	}
	frame := w.Detach()
	wire.PutWriter(w)
	_ = o.framing.Send(from, frame) //lint:ok errdrop best-effort: a lost reply looks like a lost request, and the client retries
}
