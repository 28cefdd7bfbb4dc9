package core

import (
	"context"
	"errors"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// This file is the server half of the read path: requests arrive as
// point-to-point "read" control calls on the NSO (service.go routes them
// here), never through the ordering layer. Three consistencies:
//
//   - Leased (serveReadLocal, the hot path): one lease check against the
//     group's tick clock, the session-floor wait, one handler run. No
//     group traffic at all.
//   - Linearizable: a stability-frontier handshake (gcs.ReadIndex) pins
//     the delivered frontier, then the executed prefix is driven up to it
//     before the handler runs. Still no ordered multicast of the read.
//   - Stale: no freshness check; the session floor is still honoured when
//     the client sent one.
//
// Delivery and execution are decoupled (the group loop drains deliveries
// into the handler), so every fresh-read guarantee is anchored on the
// *executed* prefix: waitMinStamp closes the delivered-but-not-yet-
// executed window that a frontier check alone would leave open.

// serveRead answers one read control call; the error return is reserved
// for encode-level failures (the reply carries application and lease
// errors in-band so the client can distinguish retryable refusals).
func (srv *Server) serveRead(req *readRequest) *readReply {
	srv.svc.metrics.reads.Inc()
	if srv.group.Config().LeaseTicks <= 0 {
		return &readReply{Code: readErrDisabled, Err: ErrReadDisabled.Error()}
	}
	start := time.Now()
	var rep *readReply
	switch req.Consistency {
	case Linearizable:
		rep = srv.serveReadLinearizable(req)
	case Stale:
		rep = srv.serveReadStale(req)
	default:
		rep = srv.serveReadLocal(req)
	}
	if rep.Code == readOK {
		srv.svc.metrics.readLatency.Observe(time.Since(start))
		if req.Trace != 0 {
			srv.svc.obs.Tracer.Record(obs.Span{
				Trace: obs.TraceID(req.Trace),
				Stage: "replica.read",
				Proc:  string(srv.svc.ID()),
				Depth: 3,
				Start: start,
				Dur:   time.Since(start),
				Note:  consistencyNote(req.Consistency),
			})
		}
	} else {
		srv.svc.metrics.readRefused.Inc()
	}
	return rep
}

// serveReadLocal is the leased read: the replica's lease is its authority
// to answer from the local executed prefix with bounded staleness. This
// is the path the static allocation budget pins (allocbudget.go) — a
// lease check, the session-floor fast path and one handler run, with no
// protocol traffic.
func (srv *Server) serveReadLocal(req *readRequest) *readReply {
	age, bound, err := srv.group.LeaseRead(srv.staleTicks(req.MaxStale))
	if err != nil {
		return readRefusal(err, age, bound)
	}
	if !srv.waitMinStamp(req.MinStamp) {
		return &readReply{Code: readErrMinStamp, Err: "session floor not reached", AgeTicks: age, BoundTicks: bound}
	}
	return srv.execRead(req, age, bound)
}

// serveReadLinearizable pins the delivered frontier with the read-index
// handshake, drives the executed prefix up to it, then runs the handler:
// every write that completed anywhere before this read began is visible.
func (srv *Server) serveReadLinearizable(req *readRequest) *readReply {
	ctx, cancel := context.WithTimeout(context.Background(), srv.rmWait)
	frontier, err := srv.group.ReadIndex(ctx)
	cancel()
	if err != nil {
		return readRefusal(err, 0, 0)
	}
	floor := frontier
	if floor.Less(req.MinStamp) {
		floor = req.MinStamp
	}
	if !srv.waitMinStamp(floor) {
		return &readReply{Code: readErrMinStamp, Err: "executed prefix behind the delivery frontier"}
	}
	return srv.execRead(req, 0, 0)
}

// serveReadStale answers with whatever the local executed prefix holds —
// no freshness evidence at all; an explicit session floor is still
// honoured so a session never observes its own writes disappearing.
func (srv *Server) serveReadStale(req *readRequest) *readReply {
	if !srv.waitMinStamp(req.MinStamp) {
		return &readReply{Code: readErrMinStamp, Err: "session floor not reached"}
	}
	return srv.execRead(req, 0, 0)
}

// execRead runs the handler under the execution mutex (reads interleave
// with ordered executions at a replica-consistent point) and stamps the
// reply with the executed prefix — reads advance the session too.
func (srv *Server) execRead(req *readRequest, age, bound uint64) *readReply {
	srv.execMu.Lock()
	payload, err := srv.cfg.Handler(req.Method, req.Args)
	stamp := srv.lastExec
	srv.execMu.Unlock()
	if err != nil {
		return &readReply{Code: readErrApp, Err: err.Error(), Stamp: stamp, AgeTicks: age, BoundTicks: bound}
	}
	return &readReply{Code: readOK, Payload: payload, Stamp: stamp, AgeTicks: age, BoundTicks: bound}
}

// staleTicks converts the client's wall-clock staleness budget to ticks
// of this server group's timer, rounding up (the client cannot know the
// group's tick period; zero means "use the configured lease bound").
func (srv *Server) staleTicks(maxStale int64) uint64 {
	if maxStale <= 0 {
		return 0
	}
	tick := srv.group.Config().Tick
	n := (time.Duration(maxStale) + tick - 1) / tick
	if n < 1 {
		n = 1
	}
	return uint64(n)
}

// readRefusal maps a gcs read-path error to its wire code.
func readRefusal(err error, age, bound uint64) *readReply {
	code := readErrRetry
	switch {
	case errors.Is(err, gcs.ErrLeaseExpired):
		code = readErrLease
	case errors.Is(err, gcs.ErrNotSequencer):
		code = readErrNotSeq
	case errors.Is(err, gcs.ErrNoLease):
		code = readErrDisabled
	}
	return &readReply{Code: code, Err: err.Error(), AgeTicks: age, BoundTicks: bound}
}

// waitMinStamp blocks until the executed prefix covers min (a session
// floor or a read-index frontier), bounded by the request-manager wait
// budget. The fast path — floor already covered, the common case for a
// session reading where it wrote — is one lock and one compare.
func (srv *Server) waitMinStamp(min vclock.Stamp) bool {
	srv.execMu.Lock()
	ok := !srv.lastExec.Less(min)
	srv.execMu.Unlock()
	if ok {
		return true
	}
	return srv.waitMinStampSlow(min)
}

// waitMinStampSlow polls the executed prefix. Execution progress is
// driven by the group loop's delivery stream, which has no condition
// variable to park on; the poll interval is far below a network RTT, so
// the added read latency is noise next to the ordered write it waits for.
func (srv *Server) waitMinStampSlow(min vclock.Stamp) bool {
	deadline := time.Now().Add(srv.rmWait)
	for {
		time.Sleep(200 * time.Microsecond)
		srv.execMu.Lock()
		ok := !srv.lastExec.Less(min)
		srv.execMu.Unlock()
		if ok {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
	}
}
