// Command perfbench is the repository benchmark: it runs one workload
// against a really trained Pythagoras model and prints its metrics as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload online --seed 1 --seconds 15 --trace 0
//
// Workloads (see the whyOf table for the reasons):
//
//   - online: HTTP over loopback to an in-process server wired like
//     `pythagoras serve`; an open-loop Poisson phase, then a closed loop.
//   - lake: rescore.Driver runs over lakes of unseen GitTables-flavour
//     tables, writing a discovery.SwapIndex.
//   - train: repeated core.TrainCtx runs on a SportsTables corpus.
//
// With --trace 0 the run reports the end-to-end metrics with no tracing.
// With --trace 1 it runs the same workload, then replays sampled
// operations through the public stage calls, each under its own span, and
// reports the per-layer metrics. Details of every run (provenance, sample
// counts, per-run values, spans) are written under -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh; a checkout that is not a git repository
// leaves it "unknown".
var commit = "unknown"

// runDeadline keeps a run inside the 180 s a run may take.
const runDeadline = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end, or per-layer when traced
	details           map[string]any     // sample counts, per-run values
	spans             []Span
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"online": runOnline,
	"lake":   runLake,
	"train":  runTrain,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "online, lake or train")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/reports", "directory for the run's report and spans")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload online|lake|train, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	started := time.Now()
	o, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := buildResult(cfg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := writeReport(cfg, o, res, time.Since(started)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildResult attaches units and checks that the workload reported every
// metric of its kind and nothing else.
func buildResult(cfg config, o *outcome) (*result, error) {
	units := endToEndUnits
	if cfg.trace {
		units = layerUnits
	}
	res := &result{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(units)),
	}
	for name, v := range o.metrics {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	var missing []string
	for name := range units {
		if _, ok := o.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

// writeReport records the run's provenance, rationale and raw details next
// to the spans of a traced run.
func writeReport(cfg config, o *outcome, res *result, wall time.Duration) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, mode))
	report := map[string]any{
		"provenance": map[string]any{
			"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc": runtime.NumCPU(), "cpu": cpuModel(), "seed": cfg.seed,
			"workload": cfg.workload, "seconds": cfg.seconds, "trace": cfg.trace,
			"wall_s": wall.Seconds(),
		},
		"why":         whyOf[cfg.workload],
		"predictions": layerPredictions,
		"result":      res,
		"details":     o.details,
	}
	if err := writeJSON(base+".json", report); err != nil {
		return err
	}
	if cfg.trace {
		return writeJSON(base+"-spans.json", o.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssSampler tracks the process's peak resident set over the measured
// phase by sampling /proc/self/statm. Set-up trains in-process, which a
// serving process never does, so the process-lifetime VmHWM would report
// set-up's training instead (see releaseMemory).
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

const rssInterval = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// releaseMemory collects the heap and returns the free part to the
// operating system, so what follows starts with the footprint of a fresh
// process: serving after training, as `pythagoras serve` after
// `pythagoras train`, or a training run after the previous one.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakMB stops the sampler and returns the peak it saw.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
