package core

import (
	"context"
	"errors"
	"fmt"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// State transfer (paper §2.2): "in order to support passive replication,
// some form of state transfer facility would have to be implemented". A
// server group member configured with Snapshot/Restore hooks can admit
// new replicas into a running group: the joiner buffers its deliveries,
// pulls a snapshot from an existing member, discards the buffered
// requests the snapshot already covers (the snapshot carries the stamp of
// the last request executed into it; stamps totally order executions at
// every member), replays the rest, and only then starts serving.
//
// The mechanism relies on the group's total order: the donor's snapshot
// corresponds to a prefix of the common execution sequence, and the
// joiner's buffered deliveries are a suffix of it, so the stamp comparison
// splices them exactly. It covers the standard execution paths (closed
// requests and open-group forwarded requests); under the asynchronous-
// forwarding optimisation the primary executes outside the group order,
// so a *backup* must act as donor — any contact other than the group
// leader satisfies that.

// stateSnapshot is the control-call answer carrying the donor's state.
type stateSnapshot struct {
	// HasState distinguishes "no snapshot support" from empty state.
	HasState bool
	// Stamp is the total-order position of the last request executed
	// into the snapshot (zero if none yet).
	Stamp vclock.Stamp
	// Data is the application snapshot.
	Data []byte
}

func encodeStateSnapshot(s *stateSnapshot) []byte {
	w := wire.GetWriter()
	w.Bool(s.HasState)
	w.Uvarint(s.Stamp.Time)
	w.String(string(s.Stamp.Sender))
	w.Blob(s.Data)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeStateSnapshot(b []byte) (*stateSnapshot, error) {
	r := wire.NewReader(b)
	s := &stateSnapshot{
		HasState: r.Bool(),
		Stamp:    vclock.Stamp{Time: r.Uvarint(), Sender: ids.ProcessID(r.String())},
		Data:     r.Blob(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// snapshotLocked captures the application state under execMu, pairing it
// with the stamp of the last executed request.
func (srv *Server) takeSnapshot() (*stateSnapshot, error) {
	if srv.cfg.Snapshot == nil {
		return &stateSnapshot{}, nil
	}
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	data, err := srv.cfg.Snapshot()
	if err != nil {
		return nil, err
	}
	return &stateSnapshot{HasState: true, Stamp: srv.lastExec, Data: data}, nil
}

// catchUp pulls a snapshot from the donor and installs it. Called before
// the group loop starts executing, so no execMu interleaving is possible
// yet.
func (srv *Server) catchUp(ctx context.Context, donor ids.ProcessID) error {
	raw, err := srv.svc.invokeControl(ctx, donor, "state", []byte(srv.cfg.Group))
	if err != nil {
		return fmt.Errorf("core: fetch state from %s: %w", donor, err)
	}
	snap, err := decodeStateSnapshot(raw)
	if err != nil {
		return fmt.Errorf("core: decode state: %w", err)
	}
	if !snap.HasState {
		return errors.New("core: donor has no snapshot support")
	}
	if err := srv.cfg.Restore(snap.Data); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	srv.execMu.Lock()
	srv.lastExec = snap.Stamp
	srv.execMu.Unlock()
	return nil
}

// ServeReplica joins a running server group with state transfer: the
// configuration must include Handler, Snapshot and Restore; Contact names
// the donor member. The returned server is fully caught up — its state
// equals what a founding member's would be at the same point in the
// group's total order.
func (s *Service) ServeReplica(ctx context.Context, cfg ServeConfig) (*Server, error) {
	if cfg.Snapshot == nil || cfg.Restore == nil {
		return nil, errors.New("core: ServeReplica needs Snapshot and Restore hooks")
	}
	if cfg.Contact.Nil() {
		return nil, errors.New("core: ServeReplica needs a contact (the state donor)")
	}
	return s.serve(ctx, cfg, true)
}

// drainCatchup buffers deliveries until the snapshot is installed, then
// replays the uncovered suffix. Runs as the prologue of groupLoop.
func (srv *Server) drainCatchup(ctx context.Context) error {
	type buffered struct {
		stamp vclock.Stamp
		req   *invRequest
	}
	var buf []buffered

	// Buffer deliveries while fetching the snapshot concurrently; the
	// fetch is an ORB call and must not block the delivery stream (the
	// donor may need our flush participation to make progress).
	snapDone := make(chan error, 1)
	go func() { snapDone <- srv.catchUp(ctx, srv.cfg.Contact) }()

	for {
		select {
		case err := <-snapDone:
			if err != nil {
				return err
			}
			// Replay the suffix not covered by the snapshot, in order.
			srv.execMu.Lock()
			cover := srv.lastExec
			srv.execMu.Unlock()
			for _, e := range buf {
				if !cover.Less(e.stamp) {
					continue // already inside the snapshot
				}
				srv.applyDelivered(e.req, e.stamp)
			}
			return nil
		case ev, ok := <-srv.group.Events():
			if !ok {
				return ErrClosed
			}
			if ev.Type == gcs.EventDeliver {
				var env envelope
				if decodePayload(ev.Deliver.Payload, &env, nil) == nil && env.kind == payloadRequest {
					if req := &env.req; req.Forwarded || req.Style == Closed {
						buf = append(buf, buffered{stamp: ev.Deliver.Stamp, req: req})
						continue
					}
				}
			}
			// Everything else (hellos, views, replies) flows through the
			// regular machinery so the roster and views stay current.
			srv.handleGroupEvent(ev)
		case <-ctx.Done():
			return fmt.Errorf("core: state transfer: %w", ctx.Err())
		}
	}
}

// applyDelivered executes one buffered or live request with full
// bookkeeping (reply suppressed during replay: the original members
// already answered it).
func (srv *Server) applyDelivered(req *invRequest, stamp vclock.Stamp) {
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	if _, ok := srv.replies.get(req.Call); ok {
		return
	}
	payload, err := srv.cfg.Handler(req.Method, req.Args)
	rep := invReply{Call: req.Call, Server: srv.svc.ID(), Payload: payload}
	if err != nil {
		rep.Err = err.Error()
	}
	srv.replies.put(req.Call, rep)
	if srv.lastExec.Less(stamp) {
		srv.lastExec = stamp
	}
}
