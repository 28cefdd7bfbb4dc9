package transport_test

import (
	"testing"

	"newtop/internal/ids"
	"newtop/internal/transport"
)

// sinkEndpoint swallows sends, keeping the last payload for inspection.
type sinkEndpoint struct {
	id   ids.ProcessID
	in   chan transport.Inbound
	last []byte
}

func newSink(id ids.ProcessID) *sinkEndpoint {
	return &sinkEndpoint{id: id, in: make(chan transport.Inbound)}
}

func (s *sinkEndpoint) ID() ids.ProcessID { return s.id }
func (s *sinkEndpoint) Send(to ids.ProcessID, payload []byte) error {
	s.last = payload
	return nil
}
func (s *sinkEndpoint) Inbound() <-chan transport.Inbound { return s.in }
func (s *sinkEndpoint) Close() error {
	select {
	case <-s.in:
	default:
		close(s.in)
	}
	return nil
}

// TestAllocGuardMuxSendFrame budgets the mux's no-copy send (run by
// ci.sh's AllocGuard stage): a frame built with its channel byte in front
// goes to the underlying endpoint as is — the same slice, no copy — while
// the generic Send still pays its one framing copy.
func TestAllocGuardMuxSendFrame(t *testing.T) {
	sink := newSink("a")
	m := transport.NewMux(sink)
	defer m.Close()
	ch := m.Channel(transport.ProtoGCS)
	fs, ok := ch.(transport.FrameSender)
	if !ok {
		t.Fatal("mux channel does not implement FrameSender")
	}
	frame := []byte{fs.FrameByte(), 'g', 'c', 's'}
	if err := fs.SendFrame("b", frame); err != nil {
		t.Fatal(err)
	}
	if &sink.last[0] != &frame[0] {
		t.Fatal("SendFrame copied the frame")
	}
	if err := fs.SendFrame("b", []byte{transport.ProtoORB, 'x'}); err != transport.ErrBadFrame {
		t.Fatalf("frame for another channel: err = %v, want ErrBadFrame", err)
	}

	avg := testing.AllocsPerRun(1000, func() {
		if err := fs.SendFrame("b", frame); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("SendFrame allocates %.1f/op, budget 0", avg)
	}
	payload := frame[1:]
	avg = testing.AllocsPerRun(1000, func() {
		if err := ch.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("Send allocates %.1f/op, budget 1 (the framing copy)", avg)
	}
	if string(sink.last) != string(frame) {
		t.Fatalf("Send framed %q, SendFrame sends %q", sink.last, frame)
	}
}
