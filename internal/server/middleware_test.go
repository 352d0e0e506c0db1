package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type = %q, want application/json (body %q)", ct, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if er.Error == "" {
		t.Fatalf("error body missing error field: %q", rec.Body.String())
	}
	return er.Error
}

// TestRequestIDGenerated: the middleware mints an ID and echoes it on the
// response; distinct requests get distinct IDs.
func TestRequestIDGenerated(t *testing.T) {
	s := trainedServer(t)
	first := getPath(t, s, "/v1/healthz").Header().Get("X-Request-ID")
	second := getPath(t, s, "/v1/healthz").Header().Get("X-Request-ID")
	if first == "" || second == "" {
		t.Fatal("X-Request-ID not set on responses")
	}
	if first == second {
		t.Fatalf("request IDs not unique: %q", first)
	}
	if !regexp.MustCompile(`^[0-9a-f]{8}-[0-9]{6}$`).MatchString(first) {
		t.Fatalf("generated ID %q does not match <prefix>-<seq> format", first)
	}
}

// TestRequestIDPropagated: a client-supplied X-Request-ID is preserved
// through to the response header (call-chain correlation).
func TestRequestIDPropagated(t *testing.T) {
	s := trainedServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-trace-42")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "upstream-trace-42" {
		t.Fatalf("X-Request-ID = %q, want upstream-trace-42", got)
	}
}

// TestPanicRecoveryReturnsJSON500: a panicking handler becomes a JSON 500,
// the panic counter increments, and the server stays serviceable.
func TestPanicRecoveryReturnsJSON500(t *testing.T) {
	var buf bytes.Buffer
	s := trainedServer(t, WithLogger(log.New(&buf, "", 0)))
	s.route("GET /test/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
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
	if !bytes.Contains(buf.Bytes(), []byte("boom")) {
		t.Fatal("panic value not logged")
	}
	// Still alive afterwards.
	if rec := getPath(t, s, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", rec.Code)
	}
}

// TestAccessLogFormat pins the access line WithLogger's slog text handler
// writes: the same attributes, in the same order, as the JSON format.
func TestAccessLogFormat(t *testing.T) {
	var buf bytes.Buffer
	s := trainedServer(t, WithLogger(log.New(&buf, "", 0)))
	getPath(t, s, "/v1/healthz")

	line := buf.String()
	want := regexp.MustCompile(
		`^time=\S+ level=INFO msg=request method=GET path=/v1/healthz status=200 bytes=[1-9][0-9]* ` +
			`dur_ms=[0-9.e+-]+ request_id=[0-9a-f]{8}-[0-9]{6} trace_id=[0-9a-f]{16}\n$`)
	if !want.MatchString(line) {
		t.Fatalf("access log line %q does not match %q", line, want)
	}
}

// TestAccessLogDisabledByDefault: no logger, no output — and requests still
// flow.
func TestAccessLogDisabledByDefault(t *testing.T) {
	s := trainedServer(t)
	if s.log != nil {
		t.Fatal("logger should default to nil")
	}
	if rec := getPath(t, s, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

// TestUnknownRouteJSON404 and TestMethodNotAllowedJSON405: the mux's
// plain-text error pages are rewritten into the unified JSON error shape
// (same contract as writeErr), status preserved.
func TestUnknownRouteJSON404(t *testing.T) {
	s := trainedServer(t)
	rec := getPath(t, s, "/v1/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	decodeError(t, rec)
}

func TestMethodNotAllowedJSON405(t *testing.T) {
	s := trainedServer(t)
	rec := getPath(t, s, "/v1/predict") // GET on a POST-only route
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
	decodeError(t, rec)
}
