package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end invocation. It is allocated by the
// invoking client and carried in the invocation-layer wire envelope, so
// every process touched by the call records its spans under the same
// identifier. Zero means "untraced".
type TraceID uint64

// String renders the canonical 16-hex-digit form.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// traceSeed spreads concurrently-started processes across the ID space;
// traceCtr makes IDs unique within a process.
var (
	traceSeed = uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15
	traceCtr  atomic.Uint64
)

// NewTraceID allocates a fresh non-zero trace identifier.
func NewTraceID() TraceID {
	id := traceSeed + traceCtr.Add(1)*0xbf58476d1ce4e5b9
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// DeriveTraceID deterministically derives a trace identifier from a
// scope and sequence number. Group-to-group invocations use this so every
// member of the client group — each of which multicasts its own copy of
// the call — stamps the same trace onto the same logical invocation.
func DeriveTraceID(scope string, n uint64) TraceID {
	h := fnv.New64a()
	_, _ = io.WriteString(h, scope)
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(n >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// Span is one protocol stage of a traced invocation. Depth is the span's
// indentation in the rendered tree (the protocol stages form a fixed
// hierarchy: client.invoke → rm.receive → rm.forward → replica.execute →
// rm.collect → rm.reply).
type Span struct {
	Trace TraceID
	// Stage names the protocol stage, e.g. "replica.execute".
	Stage string
	// Proc is the process the stage ran on (which may be a remote process
	// whose timing was reported in the wire envelope, e.g. a replica's
	// execution time carried in its reply).
	Proc string
	// Depth is the tree depth used by the renderer.
	Depth int
	Start time.Time
	Dur   time.Duration
	// Note carries free-form detail ("mode=wait-for-all", "transit=1.2ms").
	Note string
}

// Trace is the recorded span set of one invocation.
type Trace struct {
	ID    TraceID
	First time.Time
	Spans []Span
}

// DefaultTraceCap is the ring capacity used by New/Default.
const DefaultTraceCap = 128

// Tracer retains the spans of the most recent traces in a preallocated
// ring of trace slots. Recording takes one mutex and copies the span into
// its trace's slot; it allocates nothing once a slot's span buffer has
// grown to the largest trace it has held, so the invocation layer can
// record on every call. Starting a trace when the ring is full recycles
// the slot of the oldest trace.
type Tracer struct {
	mu    sync.Mutex
	slots []traceSlot // ring; the newest slot is slots[(next+len-1)%len]
	next  int         // slot the next new trace takes
	count uint64      // traces started, for the slots' start order
}

// traceSlot holds one trace. spans keeps its capacity across the traces
// that reuse the slot.
type traceSlot struct {
	id    TraceID
	first time.Time
	seq   uint64 // start order; 0 = never used
	spans []Span
}

// NewTracer returns a tracer retaining the last capacity traces.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{slots: make([]traceSlot, capacity)}
}

// slotLocked finds the slot holding a trace, searching from the newest:
// the spans of one invocation are recorded close together, so the match
// is nearly always one of the first few slots probed.
func (t *Tracer) slotLocked(id TraceID) *traceSlot {
	n := len(t.slots)
	for i := 1; i <= n; i++ {
		sl := &t.slots[(t.next-i+n)%n]
		if sl.seq == 0 {
			return nil // never-used slots follow: the ring has not wrapped
		}
		if sl.id == id {
			return sl
		}
	}
	return nil
}

// Record appends one span to its trace, starting (and, at capacity,
// evicting the oldest) trace as needed. Spans with a zero trace ID are
// dropped.
func (t *Tracer) Record(s Span) {
	if s.Trace == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.slotLocked(s.Trace)
	if sl == nil {
		sl = &t.slots[t.next]
		t.next = (t.next + 1) % len(t.slots)
		t.count++
		sl.id, sl.first, sl.seq = s.Trace, s.Start, t.count
		clear(sl.spans) // drop the evicted trace's string references
		sl.spans = sl.spans[:0]
	}
	if s.Start.Before(sl.first) {
		sl.first = s.Start
	}
	sl.spans = append(sl.spans, s)
}

// copyLocked snapshots one slot as a Trace.
func (sl *traceSlot) copyLocked() *Trace {
	return &Trace{ID: sl.id, First: sl.first, Spans: append([]Span(nil), sl.spans...)}
}

// Lookup returns a copy of one trace, or nil if it has been evicted (or
// never seen).
func (t *Tracer) Lookup(id TraceID) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sl := t.slotLocked(id); sl != nil {
		return sl.copyLocked()
	}
	return nil
}

// Recent returns copies of up to n most recently started traces, newest
// first.
func (t *Tracer) Recent(n int) []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.slots)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= size && len(out) < n; i++ {
		sl := &t.slots[(t.next-i+size)%size]
		if sl.seq == 0 {
			break
		}
		out = append(out, sl.copyLocked())
	}
	return out
}

// WriteText renders up to n recent traces as indented span trees, the
// format served at /traces.
func (t *Tracer) WriteText(w io.Writer, n int) {
	for _, tr := range t.Recent(n) {
		tr.WriteText(w)
		fmt.Fprintln(w)
	}
}

// WriteText renders one trace: spans sorted by start time, indented by
// stage depth, with offsets relative to the trace's first span.
func (tr *Trace) WriteText(w io.Writer) {
	spans := append([]Span(nil), tr.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	fmt.Fprintf(w, "trace %s  spans=%d\n", tr.ID, len(spans))
	for _, s := range spans {
		note := s.Note
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %8s  %s%-16s  proc=%s  dur=%s%s\n",
			fmtOffset(s.Start.Sub(tr.First)), strings.Repeat("  ", s.Depth), s.Stage, s.Proc,
			s.Dur.Round(time.Microsecond), note)
	}
}

func fmtOffset(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	return "+" + d.Round(time.Microsecond).String()
}
