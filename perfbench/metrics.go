package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract; BENCHMARK.json at the repository root lists
// the same names (the smoke test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kib_per_op", "KiB"},
	{"ok_share", "ratio"},
}

// perLayer are the traced run's metrics. A layer a workload's path does
// not reach reads 0 on that workload (README.md says which apply where).
// rm-failover's own layer figures (detection, rebind, views per crash,
// generator lateness) are printed in its report instead: that workload is
// not in BENCHMARK.json (README.md says why).
var perLayer = []metricDef{
	{"core.request_us", "us"},
	{"core.replica_skew_us", "us"},
	{"core.reply_us", "us"},
	{"core.read_serve_us", "us"},
	{"servant.exec_us", "us"},
	{"shard.hot_share", "ratio"},
	{"transport.msgs_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"transport.send_us", "us"},
	{"tcpnet.frames_per_flush", "count"},
	{"tcpnet.drops", "count"},
	{"gcs.multicast_us", "us"},
	{"gcs.deliver_skew_us", "us"},
	{"gcs.nulls_per_msg", "ratio"},
	{"gcs.resent_per_kmsg", "count"},
	{"gcs.bytes_per_op", "B"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.traced_ops_per_s", "ops/s"},
	{"bench.traced_cpu_us_per_op", "us"},
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	attempted, failed int
	checks            []check
	setups            []time.Duration
	// ops completed in the timed phase, that phase's wall time and cost.
	ops     int
	elapsed time.Duration
	proc    procDelta
	// phase, when set, splits a steady workload's timed phase into
	// windows; the end-to-end figures then come from its n least-stolen
	// windows.
	phase *phase
	// writes are ordered-op latencies (Call, put, or multicast delivered
	// everywhere); reads are leased Read latencies.
	writes, reads []sample
	// writeP50/writeP99, when set, replace the percentiles of writes
	// (rm-failover reports the median over its cycles).
	writeP50, writeP99 time.Duration
	// extra are workload-specific figures printed in the report but not
	// in the result line (they do not apply to every workload).
	extra []figure
	// layers holds the per-layer metrics a traced run derived.
	layers map[string]float64
	// counters are the endpoint decorator's totals, written with spans.
	counters map[string]float64
}

// sample is one completed op: when it completed, relative to the start of
// the timed phase, and how long it took.
type sample struct{ at, lat time.Duration }

func lats(xs []sample) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.lat
	}
	return out
}

// figure is one named, unit-tagged number for the human report.
type figure struct {
	name, unit string
	value      float64
	samples    int
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is the timed phase of a steady workload, cut into fixed windows
// at whose boundaries the process cost counters are read. Host noise on a
// small shared VM comes in two kinds. Bursts spoil a window or two, and
// the median of the per-window rates and costs leaves them out. Steal
// phases, where the host takes a share of the guest's CPU time back for a
// minute or more, spoil every window they cover; the host counts that
// time as steal in /proc/stat. A window with more than stealLimit of its
// CPU time stolen does not count towards the n windows the phase
// measures, and the phase runs on, up to limit windows, until n have
// counted.
type phase struct {
	start    time.Time
	win      time.Duration
	n, limit int
	bounds   []procSample // readings at window boundaries, complete once done is closed
	over     atomic.Bool  // set once the phase has its windows: clients stop
	done     chan struct{}
}

// stealLimit is the share of a window's CPU time the host may steal
// before the window is not counted.
const stealLimit = 0.02

// startPhase starts a phase of about seconds, cut into windows of about
// 1 s. To wait out stolen windows it may run on for three times its
// length, at most a minute, so that the run stays inside hardLimit.
func startPhase(seconds float64) *phase {
	extra := min(time.Duration(3*seconds*float64(time.Second)), time.Minute)
	n := max(1, int(math.Round(seconds)))
	win := time.Duration(seconds*float64(time.Second)) / time.Duration(n)
	p := &phase{
		win:   win,
		n:     n,
		limit: n + int(extra/win),
		done:  make(chan struct{}),
	}
	p.bounds = append(make([]procSample, 0, p.limit+1), sampleProc())
	p.start = p.bounds[0].at
	go func() {
		defer close(p.done)
		defer p.over.Store(true)
		counted := 0
		for k := 1; k <= p.limit && counted < p.n; k++ {
			time.Sleep(time.Until(p.start.Add(time.Duration(k) * p.win)))
			s := sampleProc()
			if p.bounds[k-1].until(s).stealShare() <= stealLimit {
				counted++
			}
			p.bounds = append(p.bounds, s)
		}
	}()
	return p
}

// running reports whether clients should keep issuing ops.
func (p *phase) running() bool { return !p.over.Load() }

// finish waits for the last window boundary and records the phase's
// totals in o.
func (p *phase) finish(o *outcome) {
	<-p.done
	o.phase = p
	o.elapsed = time.Since(p.start)
	o.proc = p.bounds[0].until(sampleProc())
}

// window is one window of a timed phase: its steal share, the figures
// measured in it and its write latencies.
type window struct {
	win                    time.Duration
	steal                  float64
	ops                    int
	rate, cpu, allocs, kib float64
	writes                 []time.Duration
}

// windows cuts o's timed phase into its windows. Ops that completed
// after the last boundary count in the totals but in no window.
func windows(o *outcome) []window {
	p := o.phase
	m := len(p.bounds) - 1
	ops := make([]int, m)
	writes := make([][]time.Duration, m)
	place := func(xs []sample, keep bool) {
		for _, x := range xs {
			at := p.start.Add(x.at)
			i, found := slices.BinarySearchFunc(p.bounds[1:], at, func(b procSample, t time.Time) int {
				return b.at.Compare(t)
			})
			if found {
				i++ // an op completing exactly on a boundary belongs to the next window
			}
			if i >= m {
				continue
			}
			ops[i]++
			if keep {
				writes[i] = append(writes[i], x.lat)
			}
		}
	}
	place(o.writes, true)
	place(o.reads, false)

	ws := make([]window, m)
	for i := range ws {
		d := p.bounds[i].until(p.bounds[i+1])
		w := window{win: p.win, steal: d.stealShare(), ops: ops[i], writes: writes[i]}
		if k := float64(ops[i]); k > 0 {
			w.rate = k / p.bounds[i+1].at.Sub(p.bounds[i].at).Seconds()
			w.cpu = us(d.cpu) / k
			w.allocs = float64(d.mallocs) / k
			w.kib = float64(d.bytes) / 1024 / k
		}
		ws[i] = w
	}
	return ws
}

// windowFigures computes the end-to-end figures of a phased run from the
// n windows with the least steal (the counted ones, unless the phase hit
// its limit). The rates and costs are medians of their per-window values;
// the write percentiles are taken over the pooled latencies of those
// windows, so a tail confined to a few windows still shows.
func windowFigures(ws []window, n int) (map[string]float64, windowBasis) {
	chosen := slices.Clone(ws)
	slices.SortStableFunc(chosen, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	chosen = chosen[:min(n, len(chosen))]

	basis := windowBasis{measured: len(ws)}
	var rate, cpu, allocs, kib []float64
	var writes []time.Duration
	for _, w := range chosen {
		basis.win = w.win
		basis.maxSteal = max(basis.maxSteal, w.steal)
		writes = append(writes, w.writes...)
		if w.ops == 0 {
			continue
		}
		basis.used++
		rate = append(rate, w.rate)
		cpu = append(cpu, w.cpu)
		allocs = append(allocs, w.allocs)
		kib = append(kib, w.kib)
	}
	basis.writes = len(writes)
	f := map[string]float64{
		"ops_per_s":        medianF(rate),
		"write_p50_ms":     ms(percentile(writes, 50)),
		"write_p99_ms":     ms(percentile(writes, 99)),
		"cpu_us_per_op":    medianF(cpu),
		"allocs_per_op":    medianF(allocs),
		"alloc_kib_per_op": medianF(kib),
	}
	return f, basis
}

// windowBasis describes which windows a phased run's figures came from.
type windowBasis struct {
	used, measured int
	win            time.Duration
	maxSteal       float64
	// writes is the number of pooled write latencies.
	writes int
}

func (b windowBasis) String() string {
	return fmt.Sprintf("rates and costs the median of %d windows of %v (%d measured, the least-stolen used; steal share at most %.3f); write percentiles over their %d pooled writes",
		b.used, b.win.Round(time.Millisecond), b.measured, b.maxSteal, b.writes)
}

// totalFigures computes the end-to-end figures over a whole run.
func totalFigures(o *outcome) map[string]float64 {
	ops := float64(max(o.ops, 1))
	p50, p99 := o.writeP50, o.writeP99
	if p50 == 0 {
		l := lats(o.writes)
		p50, p99 = percentile(l, 50), percentile(l, 99)
	}
	return map[string]float64{
		"ops_per_s":        float64(o.ops) / o.elapsed.Seconds(),
		"write_p50_ms":     ms(p50),
		"write_p99_ms":     ms(p99),
		"cpu_us_per_op":    us(o.proc.cpu) / ops,
		"allocs_per_op":    float64(o.proc.mallocs) / ops,
		"alloc_kib_per_op": float64(o.proc.bytes) / 1024 / ops,
	}
}

// report prints the human-readable figures, the checks and the result
// line, and returns the process exit code.
func report(w io.Writer, cfg config, o *outcome) int {
	correct := o.failed == 0 && o.attempted > 0
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "# check %-30s %-4s %s\n", c.name, status, c.detail)
	}

	var e2e map[string]float64
	basis := fmt.Sprintf("whole run, %d ops", o.ops)
	writes := len(o.writes)
	if o.phase != nil {
		var b windowBasis
		e2e, b = windowFigures(windows(o), o.phase.n)
		basis, writes = b.String(), b.writes
	} else {
		e2e = totalFigures(o)
	}
	e2e["setup_s"] = median(o.setups).Seconds()
	e2e["ok_share"] = float64(o.attempted-o.failed) / float64(max(o.attempted, 1))
	fmt.Fprintf(w, "# basis %s\n", basis)
	fmt.Fprintf(w, "# setups %v\n", o.setups)
	for _, d := range endToEnd {
		n := o.ops
		switch d.name {
		case "setup_s":
			n = len(o.setups)
		case "write_p50_ms", "write_p99_ms":
			n = writes
		}
		fmt.Fprintf(w, "# e2e   %-26s %14.4f %-6s n=%d%s\n", d.name, e2e[d.name], d.unit, n, tailNote(d.name, n))
	}
	if len(o.reads) > 0 {
		o.extra = append(o.extra,
			figure{"read_p50_ms", "ms", ms(percentile(lats(o.reads), 50)), len(o.reads)},
			figure{"read_p99_ms", "ms", ms(percentile(lats(o.reads), 99)), len(o.reads)},
		)
	}
	for _, f := range o.extra {
		fmt.Fprintf(w, "# extra %-26s %14.4f %-6s n=%d%s\n", f.name, f.value, f.unit, f.samples, tailNote(f.name, f.samples))
	}
	fmt.Fprintf(w, "# run   attempted=%d failed=%d ops=%d elapsed=%.3fs gc=%d steal=%.3f\n",
		o.attempted, o.failed, o.ops, o.elapsed.Seconds(), o.proc.numGC, o.proc.stealShare())

	res := result{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		layers := o.layers
		if layers == nil {
			layers = map[string]float64{}
		}
		ops := float64(max(o.ops, 1))
		layers["bench.traced_ops_per_s"] = e2e["ops_per_s"]
		layers["bench.traced_cpu_us_per_op"] = e2e["cpu_us_per_op"]
		layers["runtime.gc_per_kop"] = float64(o.proc.numGC) * 1000 / ops
		layers["runtime.gc_cpu_share"] = o.proc.gcShare()
		for _, d := range perLayer {
			v := layers[d.name]
			fmt.Fprintf(w, "# layer %-26s %14.4f %s\n", d.name, v, d.unit)
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: e2e[d.name], Unit: d.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(w, "# marshal result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}

// tailNote flags a p99 whose sample count leaves fewer than ten samples
// beyond it.
func tailNote(name string, n int) string {
	if strings.Contains(name, "p99") && n < 1000 {
		return " (fewer than 10 samples beyond p99)"
	}
	return ""
}

// percentile is the nearest-rank q-th percentile of xs (xs is sorted in
// place).
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q/100*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []time.Duration) time.Duration { return percentile(xs, 50) }

// medianF is the median of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procSample is a reading of the process-wide cost counters.
type procSample struct {
	at             time.Time
	cpu            time.Duration
	mallocs, bytes uint64
	numGC          uint32
	gcCPU, allCPU  float64
	// hostAll and hostSteal are the machine's CPU time and the part of it
	// the host gave to other guests, in clock ticks (0 without /proc/stat).
	hostAll, hostSteal uint64
}

// procDelta is the cost of one phase: the difference of two samples.
type procDelta struct {
	cpu                time.Duration
	mallocs, bytes     uint64
	numGC              uint32
	gcCPU, allCPU      float64
	hostAll, hostSteal uint64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	hostAll, hostSteal := hostCPU()
	return procSample{
		at:        time.Now(),
		cpu:       cpu,
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		numGC:     ms.NumGC,
		gcCPU:     floatOf(s[0]),
		allCPU:    floatOf(s[1]),
		hostAll:   hostAll,
		hostSteal: hostSteal,
	}
}

// hostCPU reads the machine-wide CPU time and steal time, in clock ticks,
// from the first line of /proc/stat ("cpu user nice system idle iowait irq
// softirq steal ..."). Both are 0 where the file cannot be read.
func hostCPU() (all, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += v
		if i == 7 {
			steal = v
		}
	}
	return all, steal
}

func floatOf(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func (a procSample) until(b procSample) procDelta {
	return procDelta{
		cpu:       b.cpu - a.cpu,
		mallocs:   b.mallocs - a.mallocs,
		bytes:     b.bytes - a.bytes,
		numGC:     b.numGC - a.numGC,
		gcCPU:     b.gcCPU - a.gcCPU,
		allCPU:    b.allCPU - a.allCPU,
		hostAll:   b.hostAll - a.hostAll,
		hostSteal: b.hostSteal - a.hostSteal,
	}
}

func (d procDelta) plus(e procDelta) procDelta {
	return procDelta{
		cpu:       d.cpu + e.cpu,
		mallocs:   d.mallocs + e.mallocs,
		bytes:     d.bytes + e.bytes,
		numGC:     d.numGC + e.numGC,
		gcCPU:     d.gcCPU + e.gcCPU,
		allCPU:    d.allCPU + e.allCPU,
		hostAll:   d.hostAll + e.hostAll,
		hostSteal: d.hostSteal + e.hostSteal,
	}
}

func (d procDelta) gcShare() float64 {
	if d.allCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.allCPU
}

// stealShare is the share of the machine's CPU time the host stole.
func (d procDelta) stealShare() float64 {
	if d.hostAll == 0 {
		return 0
	}
	return float64(d.hostSteal) / float64(d.hostAll)
}
