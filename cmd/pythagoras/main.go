// Command pythagoras trains, evaluates and applies the Pythagoras semantic
// type detection model from the command line.
//
// Subcommands:
//
//	pythagoras train -data ./corpus -model model.bin
//	pythagoras eval  -data ./corpus -model model.bin
//	pythagoras predict -data ./lake -model model.bin [-table id]
//	pythagoras serve -model model.bin -addr :8080
//
// -data points at a directory of <id>.csv files with <id>.labels.json
// sidecars (as written by datagen or any conforming tool). Prediction works
// on unlabeled CSVs too. train's -dim and -lm-layers set the frozen
// encoder; the checkpoint records its config, so eval, predict and serve
// rebuild the same encoder from the model file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/server"
	"github.com/sematype/pythagoras/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pythagoras {train|eval|predict|serve} [flags]")
	os.Exit(2)
}

func buildEncoder(dim, layers int) *lm.Encoder {
	heads := 4
	for dim%heads != 0 {
		heads--
	}
	return lm.NewEncoder(lm.Config{
		Dim: dim, Layers: layers, Heads: heads, FFNDim: 2 * dim,
		MaxLen: 512, Buckets: 1 << 15, Seed: 20240325,
	})
}

// newLogger maps -log-format to a slog logger on stderr, the one log path
// of train and serve: the command's printf-style lines (via
// slog.NewLogLogger), its fatal errors and the server's events all go
// through its handler, so every stderr line has the chosen format.
func newLogger(format string) *slog.Logger {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	log.Fatalf("invalid -log-format %q (want text or json)", format)
	return nil
}

// fatal logs a failed step at error level and exits 1.
func fatal(logger *slog.Logger, step string, err error) {
	logger.Error(step+" failed", "err", err)
	os.Exit(1)
}

func loadCorpus(logger *slog.Logger, dir string) *data.Corpus {
	tables, err := table.LoadDir(dir)
	if err != nil {
		fatal(logger, "load corpus", err)
	}
	c := &data.Corpus{Name: dir, Tables: tables}
	c.BuildVocabulary()
	return c
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataDir := fs.String("data", "", "corpus directory (required)")
	modelPath := fs.String("model", "pythagoras-model.bin", "output model path")
	epochs := fs.Int("epochs", 150, "training epochs")
	lr := fs.Float64("lr", 1e-2, "initial learning rate (linearly decayed)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "training worker goroutines (0 = all CPUs; results are identical at any count)")
	metrics := fs.Bool("metrics", false, "stream a JSON metrics snapshot to stdout after every epoch")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	dim := fs.Int("dim", 64, "frozen encoder width (768 = paper scale)")
	layers := fs.Int("lm-layers", 2, "frozen encoder depth")
	fs.Parse(args)
	if *dataDir == "" {
		log.Fatal("train: -data is required")
	}
	logger := newLogger(*logFormat)

	c := loadCorpus(logger, *dataDir)
	if err := c.Validate(); err != nil {
		fatal(logger, "validate corpus", err)
	}
	rng := rand.New(rand.NewSource(*seed))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)

	cfg := core.DefaultConfig(buildEncoder(*dim, *layers))
	cfg.Epochs = *epochs
	cfg.LearningRate = *lr
	cfg.Seed = *seed
	cfg.TrainWorkers = *workers
	cfg.Logf = slog.NewLogLogger(logger.Handler(), slog.LevelInfo).Printf
	if *metrics {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		obs.RegisterRuntimeMetrics(reg)
		par.RegisterMetrics(reg)
		// Piggyback on the trainer's per-epoch progress line: every time one
		// is emitted, follow it with a machine-readable snapshot on stdout.
		inner := cfg.Logf
		cfg.Logf = func(format string, args ...any) {
			inner(format, args...)
			if strings.HasPrefix(format, "pythagoras: epoch") {
				if raw, err := json.Marshal(reg.Snapshot()); err == nil {
					fmt.Println(string(raw))
				}
			}
		}
	}

	m, err := core.TrainCtx(context.Background(), c, train, val, cfg)
	if err != nil {
		fatal(logger, "train", err)
	}
	split, _ := m.Evaluate(c, test)
	fmt.Printf("test weighted F1: numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.WeightedF1, split.NonNumeric.WeightedF1, split.Overall.WeightedF1)
	fmt.Printf("test macro F1:    numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.MacroF1, split.NonNumeric.MacroF1, split.Overall.MacroF1)

	// The drift baseline — the model's own prediction distribution over its
	// training tables, the reference `serve` compares live traffic against
	// (DESIGN.md §11) — is saved inside the checkpoint.
	trainTables := make([]*table.Table, len(train))
	for i, idx := range train {
		trainTables[i] = c.Tables[idx]
	}
	baseline := m.ComputeDriftBaseline(trainTables)
	m.SetDriftBaseline(baseline)
	if err := m.SaveFile(*modelPath); err != nil {
		fatal(logger, "save model", err)
	}
	fmt.Printf("model saved to %s (%d parameters, drift baseline of %d predictions)\n",
		*modelPath, m.Params().Count(), baseline.Total())
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dataDir := fs.String("data", "", "corpus directory (required)")
	modelPath := fs.String("model", "pythagoras-model.bin", "model path")
	report := fs.Int("report", 0, "print a per-class report for the top N types by support")
	confusions := fs.Int("confusions", 0, "print the top N most frequent misclassification pairs")
	fs.Parse(args)
	if *dataDir == "" {
		log.Fatal("eval: -data is required")
	}

	m, err := core.LoadFile(*modelPath, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	c := loadCorpus(slog.Default(), *dataDir)
	idx := make([]int, len(c.Tables))
	for i := range idx {
		idx[i] = i
	}
	// Re-map corpus labels into the model's vocabulary.
	c.Types = m.Types()
	c.LabelIndex = map[string]int{}
	for i, st := range c.Types {
		c.LabelIndex[st] = i
	}
	split, preds := m.Evaluate(c, idx)
	fmt.Printf("columns scored: %d\n", len(preds))
	fmt.Printf("weighted F1: numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.WeightedF1, split.NonNumeric.WeightedF1, split.Overall.WeightedF1)
	fmt.Printf("macro F1:    numeric=%.3f non-numeric=%.3f overall=%.3f\n",
		split.Numeric.MacroF1, split.NonNumeric.MacroF1, split.Overall.MacroF1)
	if *report > 0 {
		fmt.Println()
		fmt.Print(eval.Report(split.Overall, eval.ReportOptions{
			ClassNames: m.Types(), SortBySupport: true, TopK: *report,
		}))
	}
	if *confusions > 0 {
		fmt.Println("\ntop confusions (true → predicted):")
		for _, cp := range eval.TopConfusions(preds, *confusions) {
			fmt.Printf("  %3d×  %-45s → %s\n", cp.Count, m.Types()[cp.True], m.Types()[cp.Pred])
		}
	}
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	dataDir := fs.String("data", "", "directory of CSVs (required)")
	modelPath := fs.String("model", "pythagoras-model.bin", "model path")
	tableID := fs.String("table", "", "predict only this table id")
	fs.Parse(args)
	if *dataDir == "" {
		log.Fatal("predict: -data is required")
	}

	m, err := core.LoadFile(*modelPath, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	all, err := table.LoadDir(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	var tables []*table.Table
	for _, t := range all {
		if *tableID == "" || t.ID == *tableID {
			tables = append(tables, t)
		}
	}
	// One batched forward pass over the whole directory.
	batch, err := infer.New(m).PredictBatchCtx(context.Background(), tables)
	if err != nil {
		log.Fatal(err)
	}
	for i, t := range tables {
		fmt.Printf("table %s (%q):\n", t.ID, t.Name)
		for _, p := range batch[i] {
			fmt.Printf("  %-24s [%s] → %-45s (%.2f)\n", p.Header, p.Kind, p.Type, p.Confidence)
		}
	}
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "pythagoras-model.bin", "model path")
	addr := fs.String("addr", ":8080", "listen address")
	minConf := fs.Float64("min-confidence", 0.3, "discovery-index confidence threshold")
	workers := fs.Int("workers", 0, "inference prepare workers (0 = NumCPU)")
	debug := fs.Bool("debug", false, "mount /debug/pprof and /debug/vars")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline, queue wait included (0 = unbounded; expiry → 504)")
	maxInflight := fs.Int("max-inflight", 64, "max concurrently processed requests; as many again may queue, the rest are shed with 429 (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")
	traceSample := fs.Float64("trace-sample", 0.01, "fraction of request traces kept (errored/slow traces are always kept)")
	traceBuffer := fs.Int("trace-buffer", obs.DefaultTraceBuffer, "trace ring-buffer capacity served by /v1/traces")
	traceSlow := fs.Duration("trace-slow", time.Second, "always keep traces at least this long (0 disables)")
	sloTarget := fs.Float64("slo-target", server.DefaultSLOTarget, "SLO success-ratio objective in (0,1); budget and burn rates derive from it (see /v1/slo)")
	sloLatencyMs := fs.Int("slo-latency-ms", int(server.DefaultSLOLatency/time.Millisecond), "latency-objective threshold in milliseconds: slower responses burn the latency SLO budget")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	shadowSample := fs.Float64("shadow-sample", 1, "fraction of live traffic double-scored on a shadowing candidate model (deterministic seeded sampling; see POST /v1/models)")
	modelsDir := fs.String("models-dir", "", "confine POST /v1/models checkpoint paths to this directory (empty = any readable path)")
	rescoreBatch := fs.Int("rescore-batch", 16, "tables per engine batch during a lake re-score")
	watchInterval := fs.Duration("watch-interval", watch.DefaultInterval, "anomaly-watchdog evaluation period (0 disables the background loop; rules still evaluate on demand in tests)")
	flightDir := fs.String("flight-dir", "", "directory for watchdog flight records (metrics+traces+profiles captured when an alert fires); empty disables capture")
	flightMax := fs.Int("flight-max", watch.DefaultFlightMax, "on-disk flight-record ring size; oldest records are evicted beyond this")
	agreeMin := fs.Float64("shadow-agreement-min", server.DefaultShadowAgreementMin, "shadow agreement rate below which the watchdog auto-rolls-back the candidate")
	agreeWindow := fs.Duration("shadow-agreement-window", server.DefaultShadowAgreementWindow, "how long shadow agreement must stay below -shadow-agreement-min before auto-rollback")
	fs.Parse(args)
	logger := newLogger(*logFormat)
	logf := slog.NewLogLogger(logger.Handler(), slog.LevelInfo).Printf
	// Burn rates divide by 1 − target, so a target of 1 makes them NaN,
	// which /v1/metrics and /v1/slo cannot encode, and one above 1 makes
	// them negative. A latency threshold of 0 would turn the latency
	// objective into a second availability one.
	if !(*sloTarget > 0 && *sloTarget < 1) {
		fatal(logger, "parse flags", fmt.Errorf("-slo-target %v is outside (0, 1)", *sloTarget))
	}
	if *sloLatencyMs < 1 {
		fatal(logger, "parse flags", fmt.Errorf("-slo-latency-ms %d is not a positive number of milliseconds", *sloLatencyMs))
	}

	// The checkpoint carries the model's drift baseline — the same load
	// POST /v1/models runs for candidates, so boot and hot-load cannot
	// disagree about what a serving model is.
	m, err := core.LoadFile(*modelPath, core.Config{})
	if err != nil {
		fatal(logger, "load model", err)
	}
	eng := infer.New(m, infer.WithWorkers(*workers), infer.WithMetrics(obs.NewRegistry()))
	// A checkpoint written before baselines moved into it carries none; the
	// model still serves, with its drift gauges at 0.
	drift := obs.NewDriftMonitor(m.DriftBaseline())
	eng.EnableDrift(drift)
	logf("pythagoras: checkpoint carries a drift baseline: %t (without one, no drift telemetry)", drift != nil)
	recorder := obs.NewTraceRecorder(obs.TraceConfig{
		SampleRate: *traceSample, SlowThreshold: *traceSlow, Buffer: *traceBuffer,
	})
	sloEng := slo.New(slo.DefaultObjectives(*sloTarget, time.Duration(*sloLatencyMs)*time.Millisecond))
	opts := []server.Option{
		server.WithSlog(logger), server.WithDebug(*debug),
		server.WithRequestTimeout(*requestTimeout), server.WithMaxInflight(*maxInflight),
		server.WithTraceRecorder(recorder), server.WithSLO(sloEng),
		server.WithShadowSample(*shadowSample),
		server.WithRescoreBatch(*rescoreBatch),
		server.WithWatchInterval(*watchInterval),
		server.WithShadowAgreement(*agreeMin, *agreeWindow),
	}
	if *flightDir != "" {
		opts = append(opts, server.WithFlightDir(*flightDir, *flightMax))
	}
	if *modelsDir != "" {
		opts = append(opts, server.WithModelsDir(*modelsDir))
	}
	srv := server.NewWithEngine(eng, *minConf, opts...)
	logf("pythagoras serving on %s (vocabulary: %d types, debug=%v, request-timeout=%s, max-inflight=%d, slo-target=%g, slo-latency=%dms)",
		*addr, len(m.Types()), *debug, *requestTimeout, *maxInflight, *sloTarget, *sloLatencyMs)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	if *watchInterval > 0 {
		srv.Watchdog().Start(ctx)
	}
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fatal(logger, "listen", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain in two layers: the app server first turns traffic away and
	// waits for in-flight inference (healthz flips to draining so the load
	// balancer pulls the instance), then the HTTP server closes listeners
	// and waits for connections to go idle.
	logf("pythagoras: signal received, draining (budget %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logf("pythagoras: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("pythagoras: http shutdown: %v", err)
	}
	logf("pythagoras: shutdown complete")
}
