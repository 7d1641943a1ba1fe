// Command perfbench is the repository benchmark: it builds the serving
// stack in-process, drives it with a closed-loop load generator over
// loopback HTTP (or, for learned-build, calls the training and tree
// code directly), checks every answer, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics — as the last line
// of standard output. See README.md for the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench --workload fleet --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sizes fixes the input sizes of every workload. full is what the
// benchmark measures; the smoke test runs tiny.
type sizes struct {
	trainSample    int // policy training sample of fleet
	learnSample    int // learned-build training sample
	fleetObjects   int
	buildObjects   int // learned-build insert sequence
	setupReps      int // set-ups per run (learned-build: 3×); setup_s is their median
	batteryPerSize int // learned-build range queries per paper query size
	servedPerSize  int // fleet's battery queries per size
	knnPerK        int // KNN queries per paper K value
	moves          int // learned-build in-process moves per cycle
	ladderObjects  int
	ladderMoves    int
}

var fullSizes = sizes{
	trainSample: 2000, learnSample: 3000,
	fleetObjects: 50_000, buildObjects: 200_000,
	setupReps: 3, batteryPerSize: 2000, servedPerSize: 800, knnPerK: 400, moves: 10_000,
	ladderObjects: 20_000, ladderMoves: 5_000,
}

var tinySizes = sizes{
	trainSample: 400, learnSample: 400,
	fleetObjects: 2_000, buildObjects: 5_000,
	setupReps: 2, batteryPerSize: 10, servedPerSize: 10, knnPerK: 5, moves: 500,
	ladderObjects: 1_000, ladderMoves: 200,
}

// Load-generator shape of the fleet workload.
const (
	connections   = 2
	fleetPipeline = 8
	numShards     = 4
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // scratch space for WAL segments and snapshots
	size     sizes
	out      io.Writer // result and fingerprint lines
	log      io.Writer // progress and failure details
}

func main() {
	var (
		workload = flag.String("workload", "", "fleet or learned-build")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		workdir  = flag.String("workdir", ".bench_build/tmp", "scratch directory for WAL segments and snapshots")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workdir: *workdir, size: fullSizes, out: out, log: os.Stderr,
	}
	res, err := run(cfg)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output: whether every check passed, the
// operations attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ledger counts attempted and failed operations and correctness checks.
// A failed operation or check makes the run incorrect.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

// op records n attempted operations of which bad failed.
func (l *ledger) op(n, bad int64) {
	l.attempted.Add(n)
	l.failed.Add(bad)
}

// check records one correctness check; a false ok logs the message.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted.Add(1)
	if !ok {
		l.fail(format, args...)
	}
	return ok
}

// fail records a failure already counted as attempted.
func (l *ledger) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.msgs) < 20 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// values is what a workload measured, by metric name.
type values map[string]float64

// run executes one workload and assembles the result line. The returned
// error is for set-up faults; failed operations and checks come back
// inside the result.
func run(cfg config) (result, error) {
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	var led ledger
	var vals values
	switch cfg.workload {
	case "fleet":
		vals, err = runFleet(cfg, &led)
	case "learned-build":
		vals, err = runLearnedBuild(cfg, &led)
	default:
		return result{}, fmt.Errorf("unknown --workload %q (fleet, learned-build)", cfg.workload)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Attempted: led.attempted.Load(),
		Failed:    led.failed.Load(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !cfg.trace {
		tails := map[string]float64{}
		for k, x := range vals {
			if name, ok := strings.CutPrefix(k, "tail."); ok {
				tails[name] = x
			}
		}
		info(cfg, "tails", tails)
	}
	for _, m := range led.msgs {
		fmt.Fprintln(cfg.log, "FAILED:", m)
	}
	return res, nil
}

// fingerprint prints the host and run parameters as one JSON line, so
// every output names the conditions it was measured under.
func fingerprint(cfg config, extra map[string]any) {
	fp := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	for k, v := range extra {
		fp[k] = v
	}
	b, _ := json.Marshal(fp)
	fmt.Fprintf(cfg.out, "host: %s\n", b)
}

// info prints a named JSON detail line (sample counts, digests) ahead of
// the result line.
func info(cfg config, name string, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(cfg.out, "%s: %s\n", name, b)
}

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

// progress logs a timestamped line to the log stream.
func progress(cfg config, format string, args ...any) {
	fmt.Fprintf(cfg.log, "perfbench: "+format+"\n", args...)
}
