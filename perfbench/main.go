// Command perfbench is the repository benchmark. It drives four seeded
// workloads against the unmodified program through its public API and
// prints, as the last line of standard output, one JSON object with the
// run's verdict and metrics.
//
//	bash perfbench/run.sh --workload invoke-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records benchmark-owned spans and reports the per-layer breakdown.
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// config is one run's settings, taken from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans is where a traced run writes its spans ("" = no file).
	spans string
}

// hardLimit ends a wedged run before the 180 s a run may take.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "file for a traced run's spans (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", cfg.workload, cfg.seed)
	}

	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s exceeded %v, aborting\n", cfg.workload, hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	printHeader(stdout, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(spanEvery[cfg.workload])
	}
	out, err := w(ctx, cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if tr != nil {
		if err := tr.write(cfg.spans, out.counters); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", tr.len(), cfg.spans)
	}
	return report(stdout, cfg, out)
}

// workloadFunc runs one workload; tr is nil on an untraced run.
type workloadFunc func(ctx context.Context, cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"invoke-mem":     runInvokeMem,
	"kv-read-mostly": runKVReadMostly,
	"peer-tcp":       runPeerTCP,
	"rm-failover":    runRMFailover,
}

// spanEvery is the share of requests a traced run records spans for, one
// in this many; request IDs end in a per-client sequence number.
var spanEvery = map[string]uint64{
	"invoke-mem":     2,
	"kv-read-mostly": 8,
	"peer-tcp":       32,
	"rm-failover":    1,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return strings.Join(names, ", ")
}

// header is the run fingerprint printed before any result.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Rev        string  `json:"rev"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

func printHeader(w io.Writer, cfg config) {
	h := header{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rev:        buildRev(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	b, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Fprintf(w, "# header %s\n", b)
}

// buildRev is the VCS revision the binary was built from, when the build
// recorded one (a build outside a git checkout does not).
func buildRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
