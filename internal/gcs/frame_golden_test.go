package gcs

import (
	"encoding/hex"
	"sync"
	"testing"

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

// TestMuxFrameGoldenGCS pins the bytes a mux channel hands its endpoint
// for a gcs data frame: the channel byte followed by the encoded message,
// byte for byte what the mux produced when it copied every payload to
// prepend the channel byte. The gcs encoder now writes that byte itself
// and the mux sends the frame uncopied; the wire must not notice.
func TestMuxFrameGoldenGCS(t *testing.T) {
	ep := &recordEP{id: "b/me", in: make(chan transport.Inbound)}
	mux := transport.NewMux(ep)
	n := NewNode(mux.Channel(transport.ProtoGCS))
	defer n.Close()
	g, err := n.Create("golden", quiescentConfig(OrderSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.installViewLocked(View{Seq: 2, Installer: "b/me", Members: []ids.ProcessID{"a/p", "b/me"}})
	g.mu.Unlock()
	if err := g.Multicast(nil, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.sends) != 1 {
		t.Fatalf("%d sends, want 1 data frame", len(ep.sends))
	}
	const want = "010106676f6c64656e0204622f6d6504622f6d65010102000100077061796c6f61640200010000"
	if got := hex.EncodeToString(ep.sends[0]); got != want {
		t.Fatalf("gcs frame bytes changed:\n got %s\nwant %s", got, want)
	}
}
