// Command perfbench is the repository's serving benchmark. It runs a
// serve.Server in-process behind a loopback listener, drives it with a
// seeded request stream from a closed loop of one client per CPU, checks
// every reply against a direct call of the same work, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload matrix-sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the
// stream single-threaded with spans around every layer call and
// reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/serve"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run builds and warms a server; setup_s
// is the median, which a one-off cost in the first build (code paths
// and allocator state the process has not touched yet) cannot move.
const setupRuns = 5

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where --trace 1 writes its spans
	setups   int    // set-ups timed; setup_s is their median
}

// runHeader identifies the environment a run measured.
type runHeader struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: matrix-sweep, compiled-skew, hot-mix or analyze")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the request stream")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced single-threaded replay")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.setups = setupRuns
	if o.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	header := newHeader(o)
	hb, _ := json.Marshal(header)
	fmt.Fprintf(stdout, "header %s\n", hb)
	res, err := execute(o, header)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func newHeader(o options) runHeader {
	return runHeader{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit("."),
	}
}

// execute runs one workload. Generating the stream and computing the
// reference answers come first and are not part of any metric.
func execute(o options, header runHeader) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	s, err := w.gen(o.seed, allCells())
	if err != nil {
		return nil, fmt.Errorf("generate stream: %w", err)
	}
	or, err := buildOracle(s)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return tracedResult(w, s, or, o, header)
	}
	return loadRun(w, s, or, o)
}

// loadRun measures the end-to-end metrics: o.setups timed set-ups
// (server construction plus the warm-up pass), then o.seconds of
// closed-loop load on the last server built.
func loadRun(w workload, s *stream, or *oracle, o options) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var setups []float64
	var b *bench
	for i := 0; i < o.setups; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		b = startBench(w, runtime.NumCPU(), (*serve.Server).Handler)
		warm := b.drive(s, or, 0, w.warmup, time.Time{})
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += warm.attempted
		res.Failed += warm.failed
		if warm.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: warm-up:", warm.firstErr)
		}
	}
	defer b.close()

	// Each figure is the median over one-second windows, so a burst of
	// interference from outside the benchmark moves it less than it
	// would move a whole-run figure.
	runtime.GC()
	n := max(1, int(o.seconds))
	span := time.Duration(o.seconds * float64(time.Second))
	heap := startHeapSampler(n, span/time.Duration(n), 10*time.Millisecond)
	load := b.drive(s, or, w.warmup, 0, time.Now().Add(span))
	var heapMB []float64
	for _, p := range heap.peaks() {
		heapMB = append(heapMB, float64(p)/1e6)
	}
	res.Attempted += load.attempted
	res.Failed += load.failed
	if load.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", load.firstErr)
	}
	var rps, p50, p99 []float64
	for _, win := range load.windows(n, span) {
		rps = append(rps, win.throughput)
		p50 = append(p50, win.p50)
		p99 = append(p99, win.p99)
	}
	fmt.Fprintf(os.Stderr, "perfbench: per-window throughput_rps %.0f\n", rps)
	if per := len(load.samples) / n; per < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: %d samples per window; latency_p99_ms has fewer than 10 beyond it\n", per)
	}
	res.Metrics["setup_s"] = metric{percentile(setups, 50), "s"}
	res.Metrics["throughput_rps"] = metric{percentile(rps, 50), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(p50, 50), "ms"}
	res.Metrics["latency_p99_ms"] = metric{percentile(p99, 50), "ms"}
	res.Metrics["heap_peak_mb"] = metric{percentile(heapMB, 50), "MB"}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedResult runs the traced replay, writes its spans, and reports
// the per-layer metrics.
func tracedResult(w workload, s *stream, or *oracle, o options, header runHeader) (*result, error) {
	tr, err := traceRun(w, s, or, o.seconds)
	if err != nil {
		return nil, err
	}
	if tr.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", tr.firstErr)
	}
	metrics, negative := tr.layerMetrics()
	if negative > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans with negative self time\n", negative)
	}
	if err := tr.write(filepath.Join(o.traceDir, w.name+".jsonl"), header); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return &result{
		Correct:   tr.failed == 0 && negative == 0,
		Attempted: tr.attempted,
		Failed:    tr.failed,
		Metrics:   metrics,
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD of the git repository at dir without running
// git, or "unknown" when dir is not a checkout with history.
func commit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
