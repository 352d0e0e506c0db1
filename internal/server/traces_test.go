package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
)

// alwaysRecorder keeps every finished trace — deterministic capture for
// tests.
func alwaysRecorder() *obs.TraceRecorder {
	return obs.NewTraceRecorder(obs.TraceConfig{SampleRate: 1})
}

func getTraces(t *testing.T, h http.Handler, query string) TracesResponse {
	t.Helper()
	rec := getPath(t, h, "/v1/traces"+query)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces%s = %d: %s", query, rec.Code, rec.Body.String())
	}
	var resp TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("traces body not JSON: %v (%q)", err, rec.Body.String())
	}
	if resp.Count != len(resp.Traces) {
		t.Fatalf("count %d != len(traces) %d", resp.Count, len(resp.Traces))
	}
	return resp
}

func spanByName(t *testing.T, tr obs.Trace, name string) obs.SpanData {
	t.Helper()
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("trace %s has no span %q (spans: %+v)", tr.TraceID, name, tr.Spans)
	return obs.SpanData{}
}

// TestChaosTraceCapture is the acceptance check for trace capture: a fault
// injected to stall the engine's forward stage must surface in /v1/traces —
// the min_ms filter finds the slow trace, the stalled span sits under the
// route's root span with correct parentage, and the root carries the
// caller's request ID.
func TestChaosTraceCapture(t *testing.T) {
	const stall = 60 * time.Millisecond
	engFaults := faultinject.New().
		On(faultinject.InferForward, faultinject.Sleep(stall))
	s := chaosServer(t, engFaults, nil, WithTraceRecorder(alwaysRecorder()))

	raw, err := json.Marshal(sampleRequest("chaos-1"))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "chaos-req-7")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict with stalled forward = %d: %s", rec.Code, rec.Body.String())
	}

	resp := getTraces(t, s, "?min_ms=40&route=predict")
	if resp.Count != 1 {
		t.Fatalf("traces matching min_ms=40&route=predict = %d, want 1", resp.Count)
	}
	tr := resp.Traces[0]
	if tr.Root != "predict" {
		t.Fatalf("root span = %q, want predict", tr.Root)
	}
	if tr.DurationMs < 40 {
		t.Fatalf("trace duration %.2fms below the stall", tr.DurationMs)
	}

	root := spanByName(t, tr, "predict")
	if root.ParentID != "" {
		t.Fatalf("root span has parent %q", root.ParentID)
	}
	if got := root.Attr("request_id"); got != "chaos-req-7" {
		t.Fatalf("root request_id attr = %q, want chaos-req-7", got)
	}
	if got := root.Attr("route"); got != "/v1/predict" {
		t.Fatalf("root route attr = %q", got)
	}

	stalled := spanByName(t, tr, "infer")
	if stalled.ParentID != root.SpanID {
		t.Fatalf("infer span parent = %q, want root %q", stalled.ParentID, root.SpanID)
	}
	if stalled.TraceID != root.TraceID {
		t.Fatal("infer span not in the root's trace")
	}
	if stalled.DurationMs < 40 {
		t.Fatalf("stalled infer span only %.2fms, stall not visible", stalled.DurationMs)
	}
	if stalled.Path != "predict.infer" {
		t.Fatalf("infer span path = %q, want predict.infer", stalled.Path)
	}
	// The parse span must NOT have absorbed the stall — the trace localizes
	// the slowness to the right stage.
	if parse := spanByName(t, tr, "parse"); parse.DurationMs >= 40 {
		t.Fatalf("parse span %.2fms — stall attributed to wrong stage", parse.DurationMs)
	}

	// The response's request ID joins to the captured trace.
	if rec.Header().Get("X-Request-ID") != root.Attr("request_id") {
		t.Fatal("response request ID does not match traced request ID")
	}
}

// TestPanicTraceMarkedErrored (satellite: panic-recovery coverage with a
// zero-sample recorder): the recorder keeps the trace only because the
// panic marked it errored, alongside the JSON 500 and the panic counter.
func TestPanicTraceMarkedErrored(t *testing.T) {
	rec0 := obs.NewTraceRecorder(obs.TraceConfig{SampleRate: 0})
	s := trainedServer(t, WithTraceRecorder(rec0))
	s.route("GET /test/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("traced boom")
	})

	rec := getPath(t, s, "/test/panic")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if msg := decodeError(t, rec); msg != "internal server error" {
		t.Fatalf("error = %q", msg)
	}
	if got := s.metrics.Counter("http.panics").Value(); got != 1 {
		t.Fatalf("http.panics = %d, want 1", got)
	}

	resp := getTraces(t, s, "?error=1")
	if resp.Count != 1 {
		t.Fatalf("errored traces = %d, want exactly the panicked request", resp.Count)
	}
	tr := resp.Traces[0]
	if !tr.Error || tr.Reason != "error" {
		t.Fatalf("trace error=%v reason=%q, want errored trace kept for cause", tr.Error, tr.Reason)
	}
	root := spanByName(t, tr, "/test/panic")
	if !root.Error {
		t.Fatal("panicked root span not marked errored")
	}

	// A healthy request afterwards is dropped by the zero sample rate —
	// proving the panic path, not sampling, kept the trace above.
	if rec := getPath(t, s, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", rec.Code)
	}
	if resp := getTraces(t, s, ""); resp.Count != 1 {
		t.Fatalf("trace count after healthy request = %d, want still 1", resp.Count)
	}
}

// TestErrorResponsesMarkTraces: a 4xx response (no panic) also seals the
// trace as errored via the route middleware's status check.
func TestErrorResponsesMarkTraces(t *testing.T) {
	s := trainedServer(t, WithTraceRecorder(obs.NewTraceRecorder(obs.TraceConfig{SampleRate: 0})))
	rec := postJSON(t, s, "/v1/predict", map[string]any{"name": "x"}) // no columns → 400
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty predict = %d, want 400", rec.Code)
	}
	resp := getTraces(t, s, "?error=true&route=/v1/predict")
	if resp.Count != 1 {
		t.Fatalf("errored predict traces = %d, want 1", resp.Count)
	}
	if tr := resp.Traces[0]; tr.Reason != "error" || !tr.Error {
		t.Fatalf("trace reason=%q error=%v", tr.Reason, tr.Error)
	}
}

// TestTracesEndpointFiltersAndValidation: filter composition, limit, and
// 400s on malformed query values.
func TestTracesEndpointFiltersAndValidation(t *testing.T) {
	s := trainedServer(t, WithTraceRecorder(alwaysRecorder()))
	for i := 0; i < 3; i++ {
		if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
			t.Fatalf("predict %d = %d", i, rec.Code)
		}
	}
	getPath(t, s, "/v1/healthz")

	if resp := getTraces(t, s, ""); resp.Count != 4 {
		t.Fatalf("unfiltered traces = %d, want 4", resp.Count)
	}
	if resp := getTraces(t, s, "?route=predict"); resp.Count != 3 {
		t.Fatalf("route=predict traces = %d, want 3", resp.Count)
	}
	if resp := getTraces(t, s, "?route=healthz"); resp.Count != 1 {
		t.Fatalf("route=healthz traces = %d, want 1", resp.Count)
	}
	if resp := getTraces(t, s, "?route=predict&limit=2"); resp.Count != 2 {
		t.Fatalf("limited traces = %d, want 2", resp.Count)
	}
	if resp := getTraces(t, s, "?min_ms=60000"); resp.Count != 0 {
		t.Fatalf("min_ms=60000 traces = %d, want 0", resp.Count)
	}
	if resp := getTraces(t, s, "?error=1"); resp.Count != 0 {
		t.Fatalf("errored traces = %d, want 0", resp.Count)
	}

	for _, q := range []string{"?min_ms=abc", "?min_ms=-1", "?limit=0", "?limit=x"} {
		rec := getPath(t, s, "/v1/traces"+q)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET /v1/traces%s = %d, want 400", q, rec.Code)
		}
		decodeError(t, rec)
	}
}

// TestMetricsPromFormat: ?format=prom switches /v1/metrics to the text
// exposition format while the default stays JSON.
func TestMetricsPromFormat(t *testing.T) {
	s := trainedServer(t)
	if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
		t.Fatalf("predict = %d", rec.Code)
	}

	rec := getPath(t, s, "/v1/metrics?format=prom")
	if rec.Code != http.StatusOK {
		t.Fatalf("prom metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE http__v1_predict_requests counter",
		"http__v1_predict_requests 1",
		"# TYPE infer_confidence histogram",
		`infer_confidence_bucket{le="+Inf"}`,
		"# TYPE runtime_goroutines gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom exposition missing %q in:\n%s", want, body)
		}
	}

	// Default format unchanged: JSON with the established top-level keys.
	rec = getPath(t, s, "/v1/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON metrics Content-Type = %q", ct)
	}
	var snap struct {
		Counters   map[string]uint64          `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Counters["http./v1/predict.requests"] != 1 {
		t.Fatal("JSON snapshot lost the unsanitized metric names")
	}
}

// TestStructuredAccessLog: WithSlog over a JSON handler emits one JSON line
// per request whose request_id matches the response header and whose
// trace_id joins to the captured trace.
func TestStructuredAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := trainedServer(t,
		WithSlog(slog.New(slog.NewJSONHandler(&buf, nil))),
		WithTraceRecorder(alwaysRecorder()))

	rec := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict = %d", rec.Code)
	}

	line := strings.TrimSpace(buf.String())
	var entry struct {
		Level     string  `json:"level"`
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Bytes     int     `json:"bytes"`
		DurMs     float64 `json:"dur_ms"`
		RequestID string  `json:"request_id"`
		TraceID   string  `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v (%q)", err, line)
	}
	if entry.Level != "INFO" || entry.Msg != "request" {
		t.Fatalf("level=%q msg=%q", entry.Level, entry.Msg)
	}
	if entry.Method != "POST" || entry.Path != "/v1/predict" || entry.Status != 200 {
		t.Fatalf("logged %s %s %d", entry.Method, entry.Path, entry.Status)
	}
	if entry.Bytes <= 0 || entry.DurMs < 0 {
		t.Fatalf("bytes=%d dur_ms=%v", entry.Bytes, entry.DurMs)
	}
	if entry.RequestID != rec.Header().Get("X-Request-ID") {
		t.Fatalf("logged request_id %q != header %q", entry.RequestID, rec.Header().Get("X-Request-ID"))
	}

	resp := getTraces(t, s, "?route=predict")
	if resp.Count != 1 {
		t.Fatalf("traces = %d, want 1", resp.Count)
	}
	if entry.TraceID == "" || entry.TraceID != resp.Traces[0].TraceID {
		t.Fatalf("logged trace_id %q does not join to captured trace %q",
			entry.TraceID, resp.Traces[0].TraceID)
	}
}

// TestTracesSurviveDrain: /v1/traces is exempt from admission limits so an
// operator can pull traces from a draining instance.
func TestTracesSurviveDrain(t *testing.T) {
	s := trainedServer(t, WithTraceRecorder(alwaysRecorder()))
	getPath(t, s, "/v1/healthz")
	s.draining.Store(true)
	rec := getPath(t, s, "/v1/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("traces while draining = %d, want 200", rec.Code)
	}
}
