package memnet_test

import (
	"testing"

	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// TestAllocGuardMemnetSend budgets one steady-state memnet send (run by
// ci.sh's AllocGuard stage): the link queue push, the link goroutine's
// pop and the receiver's inbound FIFO. A link that abandons its popped
// prefix regrows its backing array on almost every send; the sliding
// window reuses it, so a warmed-up send allocates nothing.
func TestAllocGuardMemnetSend(t *testing.T) {
	n := memnet.New(netsim.New(netsim.FastProfile(), 1))
	a := mustEndpoint(t, n, "a", netsim.SiteLAN)
	b := mustEndpoint(t, n, "b", netsim.SiteLAN)
	defer a.Close()
	defer b.Close()

	payload := []byte("steady-state frame")
	in := b.Inbound()
	send := func() {
		// Two in flight, then both received: the link queue holds more
		// than one message, so the window has to slide to stay put.
		for i := 0; i < 2; i++ {
			if err := a.Send("b", payload); err != nil {
				t.Fatal(err)
			}
		}
		<-in
		<-in
	}
	for i := 0; i < 256; i++ {
		send()
	}
	avg := testing.AllocsPerRun(1000, send)
	t.Logf("memnet send: %.2f allocs per 2 sends", avg)
	if avg != 0 {
		t.Fatalf("steady-state memnet send allocates %.2f per 2 sends, budget 0", avg)
	}
}
