package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/ids"
	"newtop/internal/transport"
)

// span is one timed interval the benchmark recorded around a call into
// the program. Spans of one request share ID; an op span (call, put,
// read, multicast) is the parent of the servant or deliver spans with its
// ID.
type span struct {
	Name  string `json:"name"`
	ID    uint64 `json:"id"`
	Proc  string `json:"proc"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Need is how many servant runs complete the op's reply mode.
	Need int `json:"need,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer is an untraced run: callers test for nil before taking a clock
// reading, so the untraced run pays nothing.
type tracer struct {
	base  time.Time
	every uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(every uint64) *tracer {
	return &tracer{base: time.Now(), every: every, spans: make([]span, 0, 1<<16)}
}

// sampled reports whether the spans of request id are recorded: a traced
// run keeps one request in every, so a fast workload's spans stay a few
// hundred thousand. False on an untraced run.
func (t *tracer) sampled(id uint64) bool { return t != nil && id%t.every == 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// reset drops spans recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON lines, followed by one line with the
// endpoint decorator's counts.
func (t *tracer) write(path string, counters map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counters": counters}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingEndpoint decorates a transport endpoint with send counts and the
// time spent inside Send. Traced runs only.
type countingEndpoint struct {
	transport.Endpoint
	msgs, bytes, sendNs atomic.Int64
}

func (e *countingEndpoint) Send(to ids.ProcessID, payload []byte) error {
	t0 := time.Now()
	err := e.Endpoint.Send(to, payload)
	e.sendNs.Add(int64(time.Since(t0)))
	e.msgs.Add(1)
	e.bytes.Add(int64(len(payload)))
	return err
}

// endpoints collects the decorated endpoints of a run.
type endpoints struct {
	mu  sync.Mutex
	eps []*countingEndpoint
}

// wrap decorates ep when the run is traced.
func (s *endpoints) wrap(tr *tracer, ep transport.Endpoint) transport.Endpoint {
	if tr == nil {
		return ep
	}
	c := &countingEndpoint{Endpoint: ep}
	s.mu.Lock()
	s.eps = append(s.eps, c)
	s.mu.Unlock()
	return c
}

// sendTotals is a reading of the decorators' summed counters.
type sendTotals struct{ msgs, bytes, sendNs int64 }

func (s *endpoints) totals() sendTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t sendTotals
	for _, e := range s.eps {
		t.msgs += e.msgs.Load()
		t.bytes += e.bytes.Load()
		t.sendNs += e.sendNs.Load()
	}
	return t
}

func (a sendTotals) minus(b sendTotals) sendTotals {
	return sendTotals{a.msgs - b.msgs, a.bytes - b.bytes, a.sendNs - b.sendNs}
}

// transportLayers fills the transport.* metrics from the decorators'
// counts over the timed phase.
func transportLayers(layers map[string]float64, t sendTotals, ops int) {
	if ops <= 0 {
		return
	}
	layers["transport.msgs_per_op"] = float64(t.msgs) / float64(ops)
	layers["transport.bytes_per_op"] = float64(t.bytes) / float64(ops)
	if t.msgs > 0 {
		layers["transport.send_us"] = float64(t.sendNs) / float64(t.msgs) / 1e3
	}
}

func (t sendTotals) counters() map[string]float64 {
	return map[string]float64{
		"transport.msgs":    float64(t.msgs),
		"transport.bytes":   float64(t.bytes),
		"transport.send_ns": float64(t.sendNs),
	}
}

// joined is one op span with its child spans.
type joined struct {
	op       span
	children []span
}

// joinSpans groups the spans named child under the op spans whose names
// are in ops, by request ID.
func joinSpans(spans []span, child string, ops ...string) map[uint64]*joined {
	byID := make(map[uint64]*joined)
	for _, s := range spans {
		if slices.Contains(ops, s.Name) {
			j := byID[s.ID]
			if j == nil {
				j = &joined{}
				byID[s.ID] = j
			}
			j.op = s
		}
	}
	for _, s := range spans {
		if s.Name != child {
			continue
		}
		if j := byID[s.ID]; j != nil {
			j.children = append(j.children, s)
		}
	}
	return byID
}

// invocationLayers derives core.request_us, core.replica_skew_us,
// and core.reply_us from ordered ops joined with their
// servant spans. replicas is the number of servants that execute each op.
func invocationLayers(layers map[string]float64, j map[uint64]*joined, replicas int) {
	var request, skew, reply []time.Duration
	for _, o := range j {
		if o.op.Name == "" || len(o.children) == 0 {
			continue
		}
		starts := make([]int64, 0, len(o.children))
		ends := make([]int64, 0, len(o.children))
		for _, c := range o.children {
			starts = append(starts, c.Start)
			ends = append(ends, c.End)
		}
		slices.Sort(starts)
		slices.Sort(ends)
		request = append(request, time.Duration(starts[0]-o.op.Start))
		if len(starts) == replicas {
			skew = append(skew, time.Duration(starts[len(starts)-1]-starts[0]))
		}
		if n := o.op.Need; n > 0 && len(ends) >= n {
			reply = append(reply, time.Duration(o.op.End-ends[n-1]))
		}
	}
	layers["core.request_us"] = us(median(request))
	layers["core.replica_skew_us"] = us(median(skew))
	layers["core.reply_us"] = us(median(reply))
}
