package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// TestCachesEvictPastCapacityKeepExactlyOnce drives the request-side
// caches past cacheCap: executed replies (exactly-once retries), the
// request manager's retained reply sets and the monitor duplicate filter.
// Each evicts its oldest entries once full and keeps the newest cacheCap,
// and a retry of a call still retained returns the retained reply without
// executing the handler again.
func TestCachesEvictPastCapacityKeepExactlyOnce(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	ep, err := net.Endpoint("solo", netsim.SiteLAN)
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	svc := NewService(ep)
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	executions := 0
	srv, err := svc.Serve(ctx, ServeConfig{
		Group: "cache",
		Handler: func(method string, args []byte) ([]byte, error) {
			executions++
			return append([]byte("ran "), args...), nil
		},
		GCS: gcs.GroupConfig{Order: gcs.OrderSequencer, Tick: time.Hour, TimeSilence: time.Hour, SuspectTimeout: time.Hour, Resend: time.Hour},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	const extra = 100
	call := func(i int) ids.CallID { return ids.CallID{Client: "c", Number: uint64(i)} }
	exec := func(i int) (invReply, bool) {
		return srv.executeOnce(call(i), "m", []byte(fmt.Sprint(i)), vclock.Stamp{}, 0)
	}
	for i := 1; i <= cacheCap+extra; i++ {
		if _, fresh := exec(i); !fresh {
			t.Fatalf("call %d: first execution reported as a retry", i)
		}
		srv.storeSet(call(i), encodeReplySet(&invReplySet{Call: call(i), Trace: uint64(i)}))
		srv.serveAsRM(nil, &bindRequest{Monitor: true}, &invRequest{Call: call(i), Mode: OneWay, Forwarded: true})
	}
	if executions != cacheCap+extra {
		t.Fatalf("%d executions, want %d", executions, cacheCap+extra)
	}

	// The newest cacheCap calls are retained: a retry of the oldest of
	// them returns its reply and runs nothing.
	oldest := extra + 1
	rep, fresh := exec(oldest)
	if fresh || executions != cacheCap+extra {
		t.Fatalf("retained call %d re-executed (fresh=%v, executions=%d)", oldest, fresh, executions)
	}
	if want := []byte("ran " + fmt.Sprint(oldest)); !bytes.Equal(rep.Payload, want) {
		t.Fatalf("retry of call %d returned %q, want the retained %q", oldest, rep.Payload, want)
	}
	if len(srv.replies.m) != cacheCap || len(srv.sets) != cacheCap || len(srv.seen) != cacheCap {
		t.Fatalf("cache sizes replies=%d sets=%d seen=%d, want %d each", len(srv.replies.m), len(srv.sets), len(srv.seen), cacheCap)
	}
	for i := 1; i <= extra; i++ {
		if _, ok := srv.replies.get(call(i)); ok {
			t.Fatalf("call %d outlived its eviction from the reply cache", i)
		}
		if _, ok := srv.sets[call(i)]; ok {
			t.Fatalf("call %d outlived its eviction from the reply sets", i)
		}
		if srv.seen[call(i)] {
			t.Fatalf("call %d outlived its eviction from the duplicate filter", i)
		}
	}
	if _, ok := srv.sets[call(oldest)]; !ok || !srv.seen[call(oldest)] {
		t.Fatalf("call %d evicted early from the reply sets or duplicate filter", oldest)
	}
	// An evicted call is past the exactly-once window: it runs again.
	if _, fresh := exec(1); !fresh || executions != cacheCap+extra+1 {
		t.Fatalf("evicted call 1 was not re-executed (fresh=%v)", fresh)
	}
}

// TestAllocGuardDecodePayload budgets the typed envelope decode (run by
// ci.sh's AllocGuard stage): with a warm interner and a reused envelope,
// decoding a request and a reply set allocates nothing — identifiers and
// method names come from the intern tables, byte fields alias the frame
// and the reply set reuses its slice.
func TestAllocGuardDecodePayload(t *testing.T) {
	stamp := func(s ids.ProcessID) invReply {
		return invReply{Call: ids.CallID{Client: "c1", Number: 9}, Server: s, Payload: []byte("r")}
	}
	req := encodeRequest(&invRequest{Call: ids.CallID{Client: "c1", Number: 9}, Mode: All, Method: "echo", Args: []byte("a"), Client: "c1", Style: Open, Trace: 3})
	set := encodeReplySet(&invReplySet{Call: ids.CallID{Client: "c1", Number: 9}, Replies: []invReply{stamp("s00"), stamp("s01"), stamp("s02")}, Trace: 3})
	in := ids.NewInterner()
	var env envelope
	decode := func() {
		if err := decodePayload(req, &env, in); err != nil || env.kind != payloadRequest {
			t.Fatalf("request: kind %d, %v", env.kind, err)
		}
		if err := decodePayload(set, &env, in); err != nil || len(env.set.Replies) != 3 {
			t.Fatalf("reply set: %d replies, %v", len(env.set.Replies), err)
		}
	}
	decode()
	if avg := testing.AllocsPerRun(500, decode); avg != 0 {
		t.Fatalf("typed decode allocates %.1f per request + reply set, budget 0", avg)
	}
}
