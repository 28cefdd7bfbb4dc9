package core

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/wire/wiretest"
)

// decodeOne decodes one payload, which must be of the given kind, with a
// fresh interner, and checks a one-shot decode agrees with it.
func decodeOne(t *testing.T, b []byte, kind byte) *envelope {
	t.Helper()
	env := new(envelope)
	if err := decodePayload(b, env, ids.NewInterner()); err != nil {
		t.Fatal(err)
	}
	if env.kind != kind {
		t.Fatalf("decoded kind %d, want %d", env.kind, kind)
	}
	var once envelope
	if err := decodePayload(b, &once, nil); err != nil || !reflect.DeepEqual(&once, env) {
		t.Fatalf("one-shot decode differs (err %v):\n%+v\n%+v", err, once, *env)
	}
	return env
}

func TestRequestRoundTrip(t *testing.T) {
	req := &invRequest{
		Call:      ids.CallID{Client: "c1", Number: 42},
		Mode:      Majority,
		Method:    "transfer",
		Args:      []byte{1, 2, 3},
		Client:    "c1",
		Style:     Open,
		Forwarded: true,
		AsyncFwd:  true,
		Trace:     0xdeadbeefcafe,
		SentAt:    1722870000123456789,
	}
	env := decodeOne(t, encodeRequest(req), payloadRequest)
	got := &env.req
	if got.Call != req.Call || got.Mode != req.Mode || got.Method != req.Method ||
		string(got.Args) != string(req.Args) || got.Client != req.Client ||
		got.Style != req.Style || got.Forwarded != req.Forwarded || got.AsyncFwd != req.AsyncFwd ||
		got.Trace != req.Trace || got.SentAt != req.SentAt {
		t.Fatalf("mismatch:\n%+v\n%+v", got, req)
	}
}

func TestReplyAndSetRoundTrip(t *testing.T) {
	rep := invReply{
		Call:      ids.CallID{Client: "c", Number: 7},
		Server:    "s1",
		Payload:   []byte("result"),
		Err:       "partial failure",
		Trace:     0x1234abcd,
		ExecNanos: 987654321,
	}
	if got := &decodeOne(t, encodeReply(rep), payloadReply).rep; got.Call != rep.Call || got.Server != rep.Server ||
		string(got.Payload) != "result" || got.Err != rep.Err ||
		got.Trace != rep.Trace || got.ExecNanos != rep.ExecNanos {
		t.Fatalf("reply mismatch: %+v", got)
	}

	set := &invReplySet{
		Call:    rep.Call,
		Replies: []invReply{rep, {Call: rep.Call, Server: "s2", Payload: []byte("x")}},
		Err:     "",
		Trace:   0x1234abcd,
	}
	got := &decodeOne(t, encodeReplySet(set), payloadReplySet).set
	if got.Call != set.Call || len(got.Replies) != 2 || got.Replies[1].Server != "s2" ||
		got.Trace != set.Trace || got.Replies[0].Trace != rep.Trace ||
		got.Replies[0].ExecNanos != rep.ExecNanos {
		t.Fatalf("set mismatch: %+v", got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	decodeOne(t, encodeHello(), payloadHello)
}

func TestBindRequestRoundTrip(t *testing.T) {
	req := &bindRequest{
		Group:       "cs/sg/c/1",
		ServerGroup: "sg",
		Contact:     "c",
		Style:       Open,
		Monitor:     true,
		AsyncFwd:    true,
		Config: gcs.GroupConfig{
			Order:          gcs.OrderSequencer,
			Leader:         "s0",
			Liveness:       gcs.EventDriven,
			TimeSilence:    time.Millisecond,
			SuspectTimeout: time.Second,
			Resend:         3 * time.Millisecond,
			FlushTimeout:   4 * time.Second,
			Tick:           5 * time.Millisecond,
		},
	}
	got, err := decodeBindRequest(encodeBindRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *req {
		t.Fatalf("mismatch:\n%+v\n%+v", got, req)
	}
}

// bindLocalFields are bindRequest.Config fields that deliberately do not
// cross the wire: Domain is a node-local delivery-domain name and
// ProcessingCost a node-local simulation knob (see encodeBindRequest).
var bindLocalFields = []string{"Config.Domain", "Config.ProcessingCost"}

// TestReflectionRoundTrips fills every exported field of each invocation
// envelope with a distinct non-zero value and round-trips it. Unlike the
// hand-written tests above, these fail automatically when someone adds a
// field to a struct and misses the encoder or the decoder — the runtime
// twin of the wiresym lint rule.
func TestReflectionRoundTrips(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		req := &invRequest{}
		wiretest.Fill(req)
		if z := wiretest.Unfilled(req); len(z) != 0 {
			t.Fatalf("filler left fields zero (extend wiretest.Fill): %v", z)
		}
		got := &decodeOne(t, encodeRequest(req), payloadRequest).req
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*req, *got))
		}
	})
	t.Run("reply", func(t *testing.T) {
		var rep invReply
		wiretest.Fill(&rep)
		if z := wiretest.Unfilled(&rep); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got := &decodeOne(t, encodeReply(rep), payloadReply).rep
		if !reflect.DeepEqual(*got, rep) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(rep, *got))
		}
	})
	t.Run("replyset", func(t *testing.T) {
		set := &invReplySet{}
		wiretest.Fill(set)
		if z := wiretest.Unfilled(set); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got := &decodeOne(t, encodeReplySet(set), payloadReplySet).set
		if !reflect.DeepEqual(got, set) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*set, *got))
		}
	})
	t.Run("bind", func(t *testing.T) {
		req := &bindRequest{}
		wiretest.Fill(req, bindLocalFields...)
		if z := wiretest.Unfilled(req, bindLocalFields...); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := decodeBindRequest(encodeBindRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*req, *got))
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		snap := &stateSnapshot{}
		wiretest.Fill(snap)
		if z := wiretest.Unfilled(snap); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := decodeStateSnapshot(encodeStateSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*snap, *got))
		}
	})
	t.Run("groupref", func(t *testing.T) {
		ref := GroupRef{}
		wiretest.Fill(&ref)
		if z := wiretest.Unfilled(&ref); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := DecodeGroupRef(ref.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(ref, got))
		}
	})
}

func TestPayloadDecodeGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		var env envelope
		_ = decodePayload(b, &env, nil)
		_ = decodePayload(b, &env, ids.NewInterner())
		_, _ = decodeBindRequest(b)
		_, _ = decodeProcs(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyModeNeed(t *testing.T) {
	cases := []struct {
		mode ReplyMode
		n    int
		want int
	}{
		{OneWay, 5, 0},
		{First, 5, 1},
		{Majority, 5, 3},
		{Majority, 4, 3},
		{All, 5, 5},
		{All, 0, 1},
		{Majority, 0, 1},
	}
	for _, c := range cases {
		if got := c.mode.need(c.n); got != c.want {
			t.Errorf("%v.need(%d) = %d, want %d", c.mode, c.n, got, c.want)
		}
	}
}

func TestModeAndStyleStrings(t *testing.T) {
	for _, m := range []ReplyMode{OneWay, First, Majority, All, ReplyMode(42)} {
		if m.String() == "" {
			t.Errorf("mode %d renders empty", int(m))
		}
	}
	for _, s := range []Style{Closed, Open, Style(42)} {
		if s.String() == "" {
			t.Errorf("style %d renders empty", int(s))
		}
	}
}

func TestReplyCacheEviction(t *testing.T) {
	rc := newReplyCache(3)
	for i := uint64(1); i <= 5; i++ {
		rc.put(ids.CallID{Client: "c", Number: i}, invReply{Server: "s"})
	}
	if _, ok := rc.get(ids.CallID{Client: "c", Number: 1}); ok {
		t.Fatal("oldest entry should be evicted")
	}
	if _, ok := rc.get(ids.CallID{Client: "c", Number: 5}); !ok {
		t.Fatal("newest entry should be present")
	}
	// Re-putting an existing call must not duplicate.
	rc.put(ids.CallID{Client: "c", Number: 5}, invReply{Server: "other"})
	if rep, _ := rc.get(ids.CallID{Client: "c", Number: 5}); rep.Server != "s" {
		t.Fatal("put must not overwrite the retained reply")
	}
}
