package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/obs"
)

// metricsSnapshot fetches and decodes GET /v1/metrics.
func metricsSnapshot(t *testing.T, s *Server) obs.Snapshot {
	t.Helper()
	rec := getPath(t, s, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics body does not decode: %v", err)
	}
	return snap
}

// TestMetricsEndpointAfterPredictBatch is the acceptance path: on a warm
// server, one POST /v1/predict-batch must leave nonzero counts in all four
// per-stage latency histograms, the per-route series, the span histograms
// and the encoder cache gauges.
func TestMetricsEndpointAfterPredictBatch(t *testing.T) {
	s := trainedServer(t)
	body := map[string]any{"tables": []TableRequest{
		sampleRequest("m1"), sampleRequest("m2"), sampleRequest("m3"), sampleRequest("m4"),
	}}
	if rec := postJSON(t, s, "/v1/predict-batch", body); rec.Code != http.StatusOK {
		t.Fatalf("predict-batch = %d: %s", rec.Code, rec.Body.String())
	}

	snap := metricsSnapshot(t, s)
	for _, name := range []string{
		"infer.stage.prepare.seconds",
		"infer.stage.union.seconds",
		"infer.stage.forward.seconds",
		"infer.stage.decode.seconds",
		"http./v1/predict-batch.latency.seconds",
		"span.predict-batch",
		"span.predict-batch.parse",
		"span.predict-batch.infer",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %q missing or empty after predict-batch", name)
		}
	}
	if got := snap.Counters["http./v1/predict-batch.requests"]; got != 1 {
		t.Errorf("predict-batch requests = %d, want 1", got)
	}
	if got := snap.Counters["infer.batches"]; got != 1 {
		t.Errorf("infer.batches = %d, want 1", got)
	}
	if got := snap.Counters["infer.tables"]; got != 4 {
		t.Errorf("infer.tables = %d, want 4", got)
	}
	if _, ok := snap.Gauges["lm.cache.text.entries"]; !ok {
		t.Error("encoder cache gauges missing from /v1/metrics")
	}
}

// TestRouteErrorCounter: a 4xx response increments the route's error series.
func TestRouteErrorCounter(t *testing.T) {
	s := trainedServer(t)
	if rec := getPath(t, s, "/v1/search"); rec.Code != http.StatusBadRequest {
		t.Fatalf("search without type = %d", rec.Code)
	}
	snap := metricsSnapshot(t, s)
	if got := snap.Counters["http./v1/search.errors"]; got != 1 {
		t.Fatalf("http./v1/search.errors = %d, want 1", got)
	}
	if got := snap.Counters["http./v1/search.requests"]; got != 1 {
		t.Fatalf("http./v1/search.requests = %d, want 1", got)
	}
}

// TestServerAdoptsEngineRegistry: an engine wired WithMetrics shares its
// registry with the server instead of getting a second one.
func TestServerAdoptsEngineRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := trainedServer(t, WithMetrics(reg))
	if s.metrics != reg {
		t.Fatal("server ignored WithMetrics registry")
	}
	if s.models.primary().engine.Metrics() != reg {
		t.Fatal("engine not wired to the server registry")
	}
}

// TestDebugEndpointsGated: pprof is absent by default and mounted (and
// JSON-404-free) under WithDebug.
func TestDebugEndpointsGated(t *testing.T) {
	plain := trainedServer(t)
	if rec := getPath(t, plain, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without -debug = %d, want 404", rec.Code)
	}
	dbg := trainedServer(t, WithDebug(true))
	if rec := getPath(t, dbg, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof with -debug = %d, want 200", rec.Code)
	}
	if rec := getPath(t, dbg, "/debug/vars"); rec.Code != http.StatusOK {
		t.Fatalf("expvar with -debug = %d, want 200", rec.Code)
	}
}

// TestMetricsUnderConcurrentLoad: concurrent predict-batch traffic against
// snapshot reads — the server-level half of the registry race acceptance.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	s := trainedServer(t)
	body := map[string]any{"tables": []TableRequest{sampleRequest("c1"), sampleRequest("c2")}}
	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if rec := postJSON(t, s, "/v1/predict-batch", body); rec.Code != http.StatusOK {
					t.Errorf("predict-batch = %d", rec.Code)
					return
				}
				metricsSnapshot(t, s)
			}
		}()
	}
	wg.Wait()
	snap := metricsSnapshot(t, s)
	if got := snap.Counters["infer.batches"]; got != callers*3 {
		t.Fatalf("infer.batches = %d, want %d", got, callers*3)
	}
}
