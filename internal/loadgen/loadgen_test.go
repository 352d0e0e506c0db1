package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/server"
)

// TestProfileRate pins the load-shaping math: soak is flat, ramp is linear
// across the window, burst lifts the rate only inside its windows.
func TestProfileRate(t *testing.T) {
	soak := Soak(100, 10*time.Second, time.Second)
	for _, el := range []time.Duration{0, 5 * time.Second, 10 * time.Second} {
		if got := soak.rate(el); got != 100 {
			t.Fatalf("soak rate(%s) = %v, want 100", el, got)
		}
	}
	ramp := Ramp(100, 300, 10*time.Second, 0)
	if got := ramp.rate(0); got != 100 {
		t.Fatalf("ramp rate(0) = %v, want 100", got)
	}
	if got := ramp.rate(5 * time.Second); math.Abs(got-200) > 1e-9 {
		t.Fatalf("ramp rate(mid) = %v, want 200", got)
	}
	if got := ramp.rate(10 * time.Second); got != 300 {
		t.Fatalf("ramp rate(end) = %v, want 300", got)
	}
	if got := ramp.rate(20 * time.Second); got != 300 {
		t.Fatalf("ramp rate past end = %v, want clamp at 300", got)
	}
	// Warmup runs at the start-of-window rate.
	if got := ramp.rate(-time.Second); got != 100 {
		t.Fatalf("ramp rate(warmup) = %v, want 100", got)
	}
	burst := Burst(50, 500, time.Second, 200*time.Millisecond, 10*time.Second, 0)
	if got := burst.rate(100 * time.Millisecond); got != 500 {
		t.Fatalf("rate inside burst = %v, want 500", got)
	}
	if got := burst.rate(500 * time.Millisecond); got != 50 {
		t.Fatalf("rate between bursts = %v, want 50", got)
	}
	if got := burst.rate(1100 * time.Millisecond); got != 500 {
		t.Fatalf("rate in second burst = %v, want 500", got)
	}
}

// TestWorkloadDeterministic: one seed, one corpus — byte-identical bodies
// across builds, and batches actually batch.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, CorpusTables: 12, BatchSize: 4}
	a, err := buildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.singles) != 12 || len(a.batches) != 3 {
		t.Fatalf("corpus = %d singles %d batches, want 12/3", len(a.singles), len(a.batches))
	}
	for i := range a.singles {
		if string(a.singles[i]) != string(b.singles[i]) {
			t.Fatalf("single %d differs across builds with one seed", i)
		}
	}
	var batch server.BatchRequest
	if err := json.Unmarshal(a.batches[0], &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Tables) != 4 {
		t.Fatalf("batch holds %d tables, want 4", len(batch.Tables))
	}
	// A corpus smaller than one batch still yields a usable batch body.
	small, err := buildWorkload(Config{Seed: 42, CorpusTables: 3, BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.batches) != 1 {
		t.Fatalf("small corpus batches = %d, want 1 (whole corpus)", len(small.batches))
	}
}

// TestRunValidation: bad configs fail fast instead of producing an empty
// report.
func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Profile: Profile{Duration: time.Second}}); err == nil {
		t.Fatal("zero QPS accepted")
	}
	if _, err := Run(ctx, Config{Profile: Profile{QPS: 10}}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(ctx, Config{Profile: Profile{QPS: 10, Duration: time.Second, Arrival: "bogus"}}); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

// TestAwaitReady: a target that never turns ready is an error, and the poll
// loop survives responses that are not yet 200.
func TestAwaitReadyTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	err := AwaitReady(context.Background(), ts.Client(), ts.URL, 150*time.Millisecond)
	if err == nil {
		t.Fatal("AwaitReady returned nil against a permanently draining target")
	}
}

// Shared trained model: training dominates test runtime, so every
// integration test below reuses one model (the same economy the server
// package's chaos tests use).
var (
	trainOnce sync.Once
	trained   *core.Model
	trainErr  error
)

func trainedModel(t *testing.T) *core.Model {
	t.Helper()
	trainOnce.Do(func() {
		c := data.GenerateSportsTables(data.SportsConfig{
			NumTables: 22, Seed: 11, MinRows: 5, MaxRows: 8, WeakNameProb: 0.1, Domains: 2,
		})
		enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 128, Buckets: 1 << 12, Seed: 7})
		cfg := core.DefaultConfig(enc)
		cfg.Epochs = 3
		cfg.Patience = 3
		trained, trainErr = core.TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trained
}

// TestRunClosedLoop is the in-process acceptance loop from ISSUE 7: loadgen
// in library mode drives an httptest server past -max-inflight; the run
// must surface both 200s and shed 429s, http.shed must rise, and the SLO
// burn-rate gauges must move with the induced budget spend.
func TestRunClosedLoop(t *testing.T) {
	eng := slo.New(slo.DefaultObjectives(0.999, 250*time.Millisecond))
	// 20ms of injected service time with max-inflight 1 caps throughput
	// around 50 QPS; offering 400 QPS guarantees sustained shedding.
	faults := faultinject.New().On(faultinject.ServerHandle, faultinject.Sleep(20*time.Millisecond))
	s := server.New(trainedModel(t), 0,
		server.WithMaxInflight(1), server.WithSLO(eng), server.WithFaults(faults))
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		Target:        ts.URL,
		Client:        ts.Client(),
		Profile:       Soak(400, 700*time.Millisecond, 100*time.Millisecond),
		BatchFraction: 0.2,
		BatchSize:     4,
		Seed:          1,
		CorpusTables:  8,
		ReadyTimeout:  5 * time.Second,
		FetchSLO:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduled == 0 || rep.Sent == 0 {
		t.Fatalf("no load offered: %+v", rep)
	}
	if rep.Status["200"] == 0 {
		t.Fatalf("no successes under load: %v", rep.Status)
	}
	if rep.Status["429"] == 0 {
		t.Fatalf("offered 400 QPS at capacity ~50 and nothing shed: %v", rep.Status)
	}
	if rep.ShedRate <= 0 {
		t.Fatalf("shed rate = %v with %d 429s", rep.ShedRate, rep.Status["429"])
	}
	if rep.AchievedQPS > rep.OfferedQPS {
		t.Fatalf("achieved %v > offered %v", rep.AchievedQPS, rep.OfferedQPS)
	}
	if rep.Latency.Count == 0 || rep.Latency.P50Ms <= 0 {
		t.Fatalf("latency summary empty: %+v", rep.Latency)
	}
	if rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("p99 %v < p50 %v", rep.Latency.P99Ms, rep.Latency.P50Ms)
	}
	// Server-side: the shed counter rose and the SLO engine burned budget.
	snap := s.Metrics().Snapshot()
	if snap.Counters["http.shed"] == 0 {
		t.Fatal("http.shed stayed zero through a shedding run")
	}
	if burn := snap.Gauges["slo.availability.burn_rate.5m"]; burn <= 0 {
		t.Fatalf("availability burn(5m) = %v after sustained shedding", burn)
	}
	if rem := snap.Gauges["slo.availability.budget.remaining"]; rem >= 1 {
		t.Fatalf("budget remaining = %v, want < 1 after bad events", rem)
	}
	// The report carried the target's SLO status home.
	if rep.SLO == nil || len(rep.SLO.Objectives) != 2 {
		t.Fatalf("report SLO status = %+v", rep.SLO)
	}
	var badSeen uint64
	for _, o := range rep.SLO.Objectives {
		badSeen += o.Bad
	}
	if badSeen == 0 {
		t.Fatal("target /v1/slo reports zero bad events after shedding")
	}
	// And the report is valid JSON end to end (the BENCH_serve.json path).
	if _, err := json.MarshalIndent(rep, "", "  "); err != nil {
		t.Fatal(err)
	}
}

// TestRunHonorsRetryAfter: with backoff honoring on, a shedding server's
// Retry-After suppresses scheduled arrivals instead of sending them.
func TestRunHonorsRetryAfter(t *testing.T) {
	faults := faultinject.New().On(faultinject.ServerHandle, faultinject.Sleep(50*time.Millisecond))
	s := server.New(trainedModel(t), 0,
		server.WithMaxInflight(1), server.WithFaults(faults))
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		Target:          ts.URL,
		Client:          ts.Client(),
		Profile:         Profile{Name: "backoff", Arrival: ArrivalFixed, QPS: 200, Duration: 600 * time.Millisecond},
		Seed:            2,
		CorpusTables:    6,
		HonorRetryAfter: true,
		ReadyTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status["429"] == 0 {
		t.Fatalf("expected sheds before the first backoff: %v", rep.Status)
	}
	if rep.Suppressed == 0 {
		t.Fatalf("Retry-After honored but nothing suppressed: %+v", rep)
	}
	if rep.Scheduled != rep.Sent+rep.Suppressed+rep.Dropped {
		t.Fatalf("arrival accounting leak: scheduled %d != sent %d + suppressed %d + dropped %d",
			rep.Scheduled, rep.Sent, rep.Suppressed, rep.Dropped)
	}
}
