// Command loadgen is the open-loop load harness for the Pythagoras serving
// path (internal/loadgen, DESIGN.md §13).
//
// Two modes:
//
//   - Against a running server: point -target at it and pick a profile.
//
//     loadgen -target http://127.0.0.1:8080 -profile soak -qps 200 -duration 30s
//
//   - Self-contained (-target empty): trains a small model in-process,
//     starts an httptest server with a bounded admission queue and a
//     deterministic injected service time, and drives load at it. This is
//     what `make loadtest` runs to produce BENCH_serve.json — no external
//     process, no network, results reproducible from one seed.
//
// -suite runs the soak and burst profiles back to back and writes one
// combined JSON document (default BENCH_serve.json); otherwise the single
// profile's report goes to -out or stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/loadgen"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/server"
)

func main() {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	target := fs.String("target", "", "base URL of the server under test (empty = self-contained in-process server)")
	profile := fs.String("profile", "soak", "load profile: soak, burst, or ramp")
	qps := fs.Float64("qps", 200, "base offered rate")
	duration := fs.Duration("duration", 10*time.Second, "measured window")
	warmup := fs.Duration("warmup", 2*time.Second, "load offered before the measured window, discarded from results")
	arrival := fs.String("arrival", loadgen.ArrivalPoisson, "arrival process: fixed or poisson")
	rampTo := fs.Float64("ramp-to", 0, "ramp profile: final rate (ramp rises linearly from -qps)")
	burstQPS := fs.Float64("burst-qps", 0, "burst profile: spike rate (default 5x -qps)")
	burstEvery := fs.Duration("burst-every", 5*time.Second, "burst profile: spike period")
	burstLen := fs.Duration("burst-len", time.Second, "burst profile: spike length")
	batchFraction := fs.Float64("batch-fraction", 0.2, "fraction of arrivals sent to /v1/predict-batch")
	batchSize := fs.Int("batch-size", 8, "tables per batch request")
	seed := fs.Int64("seed", 1, "seed for the workload corpus and every arrival/mix draw")
	corpus := fs.Int("corpus", 24, "distinct tables in the workload corpus")
	honorRetryAfter := fs.Bool("honor-retry-after", false, "suppress arrivals until the server's Retry-After advice expires")
	out := fs.String("out", "", "write the JSON report here (default: stdout; -suite default: BENCH_serve.json)")
	suite := fs.Bool("suite", false, "run the soak+burst benchmark suite and write one combined document")
	maxInflight := fs.Int("max-inflight", 4, "self-contained server: admission bound (as many again may queue)")
	serviceTime := fs.Duration("service-time", 25*time.Millisecond, "self-contained server: injected per-request service time")
	fs.Parse(os.Args[1:])

	ctx := context.Background()
	base := loadgen.Config{
		Target:          *target,
		BatchFraction:   *batchFraction,
		BatchSize:       *batchSize,
		Seed:            *seed,
		CorpusTables:    *corpus,
		HonorRetryAfter: *honorRetryAfter,
		ReadyTimeout:    30 * time.Second,
		FetchSLO:        true,
	}

	var startWatch func()
	if *target == "" {
		log.Printf("loadgen: no -target, starting self-contained server (max-inflight=%d, service-time=%s)",
			*maxInflight, *serviceTime)
		ts, srv, err := selfContained(*maxInflight, *serviceTime)
		if err != nil {
			log.Fatal(err)
		}
		defer ts.Close()
		base.Target = ts.URL
		base.Client = ts.Client()
		// The suite's soak_watchdog row re-runs the soak with the anomaly
		// watchdog's tick loop live, so the overhead of rule evaluation is
		// on record next to the baseline soak. Only possible self-contained:
		// an external server owns its own watchdog.
		startWatch = func() { srv.Watchdog().Start(ctx) }
	}

	if *suite {
		path := *out
		if path == "" {
			path = "BENCH_serve.json"
		}
		if err := runSuite(ctx, base, *qps, *duration, *warmup, path, startWatch); err != nil {
			log.Fatal(err)
		}
		return
	}

	base.Profile = buildProfile(*profile, *arrival, *qps, *rampTo, *burstQPS, *burstEvery, *burstLen, *duration, *warmup)
	rep, err := loadgen.Run(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON(*out, rep); err != nil {
		log.Fatal(err)
	}
}

func buildProfile(name, arrival string, qps, rampTo, burstQPS float64, burstEvery, burstLen, dur, warmup time.Duration) loadgen.Profile {
	var p loadgen.Profile
	switch name {
	case "soak":
		p = loadgen.Soak(qps, dur, warmup)
	case "burst":
		if burstQPS <= 0 {
			burstQPS = 5 * qps
		}
		p = loadgen.Burst(qps, burstQPS, burstEvery, burstLen, dur, warmup)
	case "ramp":
		if rampTo <= 0 {
			rampTo = 3 * qps
		}
		p = loadgen.Ramp(qps, rampTo, dur, warmup)
	default:
		log.Fatalf("loadgen: unknown profile %q (want soak, burst, or ramp)", name)
	}
	p.Arrival = arrival
	return p
}

// runSuite is the BENCH_serve.json producer: a steady soak at the base rate,
// then the same base with periodic spikes past capacity so shedding and the
// burn-rate response are on record next to the healthy numbers — and, when
// self-contained, the soak again with the watchdog loop ticking
// (soak_watchdog) to pin its overhead.
func runSuite(ctx context.Context, base loadgen.Config, qps float64, dur, warmup time.Duration, path string, startWatch func()) error {
	type suiteDoc struct {
		Generated  string                     `json:"generated"`
		GoVersion  string                     `json:"go_version"`
		GOMAXPROCS int                        `json:"gomaxprocs"`
		NumCPU     int                        `json:"num_cpu"`
		Seed       int64                      `json:"seed"`
		Profiles   map[string]*loadgen.Report `json:"profiles"`
	}
	doc := suiteDoc{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       base.Seed,
		Profiles:   map[string]*loadgen.Report{},
	}
	type stage struct {
		p      loadgen.Profile
		before func()
	}
	stages := []stage{
		{p: loadgen.Soak(qps, dur, warmup)},
		{p: loadgen.Burst(qps, 5*qps, 5*time.Second, time.Second, dur, warmup)},
	}
	if startWatch != nil {
		wp := loadgen.Soak(qps, dur, warmup)
		wp.Name = "soak_watchdog"
		stages = append(stages, stage{p: wp, before: startWatch})
	}
	for _, st := range stages {
		if st.before != nil {
			st.before()
		}
		p := st.p
		cfg := base
		cfg.Profile = p
		log.Printf("loadgen: profile %s (%.0f qps, %s + %s warmup)", p.Name, p.QPS, p.Duration, p.Warmup)
		rep, err := loadgen.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("profile %s: %w", p.Name, err)
		}
		log.Printf("loadgen: %s done — offered %.1f qps, achieved %.1f, shed %.1f%%, p99 %.1fms",
			p.Name, rep.OfferedQPS, rep.AchievedQPS, 100*rep.ShedRate, rep.Latency.P99Ms)
		doc.Profiles[p.Name] = rep
	}
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	log.Printf("loadgen: wrote %s", path)
	return nil
}

// selfContained trains a small model and serves it behind a tight admission
// bound and a deterministic injected service time, so one process can
// demonstrate the full control loop: offered load → shedding → SLO burn.
// The app server is returned alongside so the suite can start its watchdog.
func selfContained(maxInflight int, serviceTime time.Duration) (*httptest.Server, *server.Server, error) {
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 22, Seed: 11, MinRows: 5, MaxRows: 8, WeakNameProb: 0.1, Domains: 2,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 128, Buckets: 1 << 12, Seed: 7})
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 3
	cfg.Patience = 3
	m, err := core.TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
	if err != nil {
		return nil, nil, err
	}
	opts := []server.Option{
		server.WithMaxInflight(maxInflight),
		server.WithSLO(slo.New(slo.DefaultObjectives(server.DefaultSLOTarget, server.DefaultSLOLatency))),
		server.WithWatchInterval(time.Second),
	}
	if serviceTime > 0 {
		opts = append(opts, server.WithFaults(
			faultinject.New().On(faultinject.ServerHandle, faultinject.Sleep(serviceTime))))
	}
	srv := server.New(m, 0, opts...)
	return httptest.NewServer(srv), srv, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
