package orb

import (
	"context"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/transport"
)

// recordEP is a transport endpoint that records every send and never
// receives.
type recordEP struct {
	id ids.ProcessID
	in chan transport.Inbound

	mu    sync.Mutex
	sends [][]byte
}

func (e *recordEP) ID() ids.ProcessID { return e.id }
func (e *recordEP) Send(to ids.ProcessID, payload []byte) error {
	e.mu.Lock()
	e.sends = append(e.sends, append([]byte(nil), payload...))
	e.mu.Unlock()
	return nil
}
func (e *recordEP) Inbound() <-chan transport.Inbound { return e.in }
func (e *recordEP) Close() error {
	select {
	case <-e.in:
	default:
		close(e.in)
	}
	return nil
}

// TestMuxFrameGoldenORB pins the bytes a mux channel hands its endpoint
// for an ORB request and a one-way request: the channel byte followed by
// the encoded request, byte for byte what the mux produced when it copied
// every payload to prepend the channel byte.
func TestMuxFrameGoldenORB(t *testing.T) {
	ep := &recordEP{id: "a", in: make(chan transport.Inbound)}
	mux := transport.NewMux(ep)
	o := New(mux.Channel(transport.ProtoORB))
	defer o.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ref := Ref{Target: "b", Object: "newtop"}
	if _, err := o.Invoke(ctx, ref, "info", []byte("sg")); err == nil {
		t.Fatal("invoke on a silent endpoint returned a reply")
	}
	if err := o.InvokeOneWay(ref, "reply", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	ep.mu.Lock()
	defer ep.mu.Unlock()
	want := []string{
		"020101066e6577746f7004696e666f027367",
		"020200066e6577746f70057265706c7903010203",
	}
	if len(ep.sends) != len(want) {
		t.Fatalf("%d sends, want %d", len(ep.sends), len(want))
	}
	for i, w := range want {
		if got := hex.EncodeToString(ep.sends[i]); got != w {
			t.Errorf("orb frame %d bytes changed:\n got %s\nwant %s", i, got, w)
		}
	}
}
