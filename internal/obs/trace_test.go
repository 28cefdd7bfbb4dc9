package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID allocated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID("g2g/cg", 7)
	b := DeriveTraceID("g2g/cg", 7)
	if a == 0 || a != b {
		t.Fatalf("derivation not deterministic: %s vs %s", a, b)
	}
	if DeriveTraceID("g2g/cg", 8) == a || DeriveTraceID("g2g/other", 7) == a {
		t.Fatal("distinct inputs collided")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	base := time.Unix(0, 0)
	for i := 1; i <= 3; i++ {
		tr.Record(Span{Trace: TraceID(i), Stage: "s", Start: base.Add(time.Duration(i) * time.Second)})
	}
	if tr.Lookup(1) != nil {
		t.Fatal("oldest trace not evicted")
	}
	if tr.Lookup(2) == nil || tr.Lookup(3) == nil {
		t.Fatal("recent traces evicted")
	}
	recent := tr.Recent(10)
	if len(recent) != 2 || recent[0].ID != 3 || recent[1].ID != 2 {
		t.Fatalf("Recent order wrong: %+v", recent)
	}
}

func TestTracerDropsZeroTrace(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{Trace: 0, Stage: "s"})
	if len(tr.Recent(10)) != 0 {
		t.Fatal("zero-trace span recorded")
	}
}

func TestTracerFirstTracksEarliestSpan(t *testing.T) {
	tr := NewTracer(4)
	base := time.Unix(100, 0)
	tr.Record(Span{Trace: 9, Stage: "late", Start: base.Add(time.Second)})
	tr.Record(Span{Trace: 9, Stage: "early", Start: base})
	got := tr.Lookup(9)
	if !got.First.Equal(base) {
		t.Fatalf("First = %v, want %v", got.First, base)
	}
}

func TestTraceWriteText(t *testing.T) {
	tr := NewTracer(4)
	base := time.Unix(50, 0)
	tr.Record(Span{Trace: 0xabc, Stage: "client.invoke", Proc: "c1", Depth: 0, Start: base, Dur: 4 * time.Millisecond, Note: "mode=wait-for-all"})
	tr.Record(Span{Trace: 0xabc, Stage: "rm.receive", Proc: "s1", Depth: 1, Start: base.Add(time.Millisecond), Dur: 2 * time.Millisecond})
	var b strings.Builder
	tr.WriteText(&b, 10)
	out := b.String()
	for _, want := range []string{
		"trace 0000000000000abc  spans=2",
		"client.invoke",
		"(mode=wait-for-all)",
		"rm.receive",
		"proc=s1",
		"+1ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// client.invoke started first and must render first.
	if strings.Index(out, "client.invoke") > strings.Index(out, "rm.receive") {
		t.Fatalf("spans not sorted by start:\n%s", out)
	}
}

// TestTracerConcurrentRecord is the tracer's -race test.
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(8)
	var wg sync.WaitGroup
	base := time.Unix(0, 0)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tr.Record(Span{Trace: TraceID(j%16 + 1), Stage: "s", Start: base.Add(time.Duration(j))})
				if j%50 == 0 {
					_ = tr.Recent(4)
					_ = tr.Lookup(TraceID(j%16 + 1))
				}
			}
		}(i)
	}
	wg.Wait()
	if len(tr.Recent(0)) != 8 {
		t.Fatalf("ring holds %d traces, want cap 8", len(tr.Recent(0)))
	}
}

// TestAllocGuardTracerRecord budgets span recording (run by ci.sh's
// AllocGuard stage): once every slot of the ring has held a trace as
// large as the ones being recorded, recording copies spans into recycled
// slots and allocates nothing.
func TestAllocGuardTracerRecord(t *testing.T) {
	tr := NewTracer(8)
	base := time.Unix(0, 0)
	id := TraceID(0)
	record := func() {
		id++
		for i := 0; i < 6; i++ {
			tr.Record(Span{Trace: id, Stage: "client.invoke", Proc: "c1", Start: base.Add(time.Duration(i)), Note: "mode=wait-for-all"})
		}
	}
	for i := 0; i < 16; i++ {
		record()
	}
	if avg := testing.AllocsPerRun(500, record); avg != 0 {
		t.Fatalf("recording a 6-span trace allocates %.1f, budget 0", avg)
	}
	if got := tr.Lookup(id); got == nil || len(got.Spans) != 6 {
		t.Fatalf("latest trace not retained whole: %+v", got)
	}
}
