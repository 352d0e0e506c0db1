package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
)

// respWriter wraps the ResponseWriter for the whole middleware chain: it
// records status and byte counts for the access log and per-route metrics,
// and it unifies error bodies — any plain-text error response (http.Error,
// the mux's own 404/405 pages) is intercepted and rewritten through
// writeErr, so every error the server emits is the same JSON shape the
// predict handlers use.
type respWriter struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool
	// traceID is set by the route middleware when the request opened a
	// trace; the access log joins it to /v1/traces.
	traceID string
	// intercept buffers a plain-text error body (detected at WriteHeader
	// time by status ≥ 400 with a missing or text/plain content type) until
	// finish() rewrites it as JSON.
	intercept bool
	errBuf    bytes.Buffer
}

func (w *respWriter) WriteHeader(code int) {
	if w.wroteHeader || w.intercept {
		return
	}
	if code >= 400 {
		ct := w.Header().Get("Content-Type")
		if ct == "" || strings.HasPrefix(ct, "text/plain") {
			w.status = code
			w.intercept = true
			return
		}
	}
	w.status = code
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.intercept {
		return w.errBuf.Write(p)
	}
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// statusOrDefault returns the response status, 200 if the handler finished
// without writing anything.
func (w *respWriter) statusOrDefault() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// abandonIntercept drops any buffered plain-text error so a later writer
// (the panic recoverer) can emit its own response.
func (w *respWriter) abandonIntercept() {
	w.intercept = false
	w.errBuf.Reset()
}

// finish flushes an intercepted plain-text error as the unified JSON error
// shape. Must be called exactly once, after the handler chain returns.
func (w *respWriter) finish() {
	if !w.intercept {
		return
	}
	status := w.status
	msg := strings.TrimSpace(w.errBuf.String())
	if msg == "" {
		msg = http.StatusText(status)
	}
	w.abandonIntercept()
	writeErr(w, status, "%s", msg)
}

type requestIDKey struct{}

// requestIDFrom returns the request ID stashed by the request-ID middleware
// ("" if the middleware did not run).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// withRequestID honors an incoming X-Request-ID header (so IDs propagate
// through catalog-tool call chains) or mints one, echoes it on the response,
// and threads it through the context for the access log and handlers.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%08x-%06d", s.idPrefix, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// withAccessLog wraps the response in the chain's respWriter, logs one
// "request" event per completed request (when a logger is configured), and
// flushes any intercepted plain-text error as JSON. The event's attributes,
// in order, are method, path, status, bytes, dur_ms, request_id and
// trace_id; under the text handler a line reads
//
//	time=… level=INFO msg=request method=POST path=/v1/predict status=200 bytes=512 dur_ms=1.234 request_id=0a1b2c3d-000001 trace_id=0000000000000001
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &respWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(rw, r)
		rw.finish()
		dur := time.Since(t0)
		// SLO accounting happens here, at the outermost timing point, so shed
		// 429s and drain 503s (written by the admission middleware, below the
		// mux) are debited exactly like handler responses.
		if !exemptFromLimits(r.URL.Path) {
			s.recordSLO(rw.statusOrDefault(), dur)
		}
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", rw.statusOrDefault()), slog.Int("bytes", rw.bytes),
				slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
				slog.String("request_id", requestIDFrom(r.Context())),
				slog.String("trace_id", rw.traceID))
		}
	})
}

// withRecover converts handler panics into JSON 500s (when the response has
// not started), counts them under http.panics, and logs the stack. The
// connection-abort sentinel is re-raised — net/http uses it for control
// flow.
func (s *Server) withRecover(next http.Handler) http.Handler {
	panics := s.metrics.Counter("http.panics")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			panics.Inc()
			if s.log != nil {
				s.log.Error("panic",
					"method", r.Method, "path", r.URL.Path,
					"request_id", requestIDFrom(r.Context()),
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			}
			if rw, ok := w.(*respWriter); ok {
				rw.abandonIntercept()
				if !rw.wroteHeader {
					writeErr(rw, http.StatusInternalServerError, "internal server error")
				}
				return
			}
			writeErr(w, http.StatusInternalServerError, "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}

// exemptFromLimits reports whether a path bypasses the deadline and
// admission middleware: health/readiness checks, metrics scrapes, trace and
// SLO reads and the debug endpoints must stay reachable under overload and
// during drain — an operator diagnosing a saturated instance needs exactly
// those. The model lifecycle and re-score control planes (/v1/models*,
// /v1/index/rescore) are exempt for the same reason: rolling back a bad
// model — which also cancels a re-score running on it — is precisely what
// an operator does while the instance is overloaded by it. Exempt paths are
// also excluded from SLO accounting: a probe is not user traffic.
func exemptFromLimits(path string) bool {
	return path == "/v1/healthz" || path == "/v1/readyz" ||
		path == "/v1/metrics" || path == "/v1/traces" || path == "/v1/slo" ||
		path == "/v1/models" || strings.HasPrefix(path, "/v1/models/") ||
		path == "/v1/index/rescore" ||
		path == "/v1/alerts" ||
		path == "/v1/flight" || strings.HasPrefix(path, "/v1/flight/") ||
		strings.HasPrefix(path, "/debug/")
}

// recordSLO feeds one completed request into the SLO engine. The
// classification convention (DESIGN.md §13):
//
//   - 5xx (500 handler failures, 503 drain rejections, 504 deadline expiry)
//     is bad — the server failed to serve.
//   - 429 shed is bad — turning traffic away is a capacity failure from the
//     client's point of view, and the whole point of the burn-rate gauges is
//     to make induced shedding visible as budget spend.
//   - 499 (client vanished) is recorded nowhere: the server cannot be
//     debited or credited for a request whose outcome the client discarded.
//   - Everything else — 2xx, 3xx and non-429 4xx — is good: a well-formed
//     rejection of a malformed request is the server working as specified.
//
// Exempt paths (probes, scrapes) never reach here.
func (s *Server) recordSLO(status int, dur time.Duration) {
	if status == statusClientClosedRequest {
		return
	}
	ok := status < 500 && status != http.StatusTooManyRequests
	s.sloEng.Record(dur, ok)
}

// withDeadline attaches the per-request deadline (WithRequestTimeout) to
// the request context. Everything downstream — admission-queue waits, the
// engine's stage gates — observes the same deadline; the handler maps its
// expiry to a JSON 504. A no-op when no timeout is configured.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.requestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptFromLimits(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// rejectTraced wraps an admission-layer rejection — written below the mux,
// where no route span exists — in its own root "reject" span. The span is
// sealed errored, so the recorder always keeps its trace, and its trace ID
// lands on the respWriter before write runs — the JSON error body the
// client holds (429 shed, 504 queue expiry, 503 drain) then names a trace
// that actually exists in GET /v1/traces. The span covers the whole
// rejection, queue wait included, because the admission middleware calls
// this after that wait elapsed with t0 already inside the request.
func (s *Server) rejectTraced(w http.ResponseWriter, r *http.Request, write func()) {
	ctx := obs.WithRecorder(obs.WithRegistry(r.Context(), s.metrics), s.recorder)
	_, span := obs.StartSpan(ctx, "reject")
	span.SetAttr("route", r.URL.Path)
	if id := requestIDFrom(r.Context()); id != "" {
		span.SetAttr("request_id", id)
	}
	if rw, ok := w.(*respWriter); ok {
		rw.traceID = span.TraceID()
	}
	write()
	span.SetError()
	span.End()
}

// withAdmission is the overload and lifecycle gate (DESIGN.md §9). In order:
//
//  1. Draining (Shutdown began): reject with 503 + Retry-After.
//  2. Admission: with WithMaxInflight configured, acquire the inflight
//     semaphore. A full server queues the request in a bounded queue (the
//     wait observes the request deadline); a full queue sheds it with
//     429 + Retry-After and counts http.shed.
//  3. Track the request in http.inflight — Shutdown's drain barrier — and
//     re-check draining after admission so a drain begun while queued
//     cannot be missed.
//
// Exempt paths (health, metrics, debug) skip all of it.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptFromLimits(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if s.draining.Load() {
			s.rejectTraced(w, r, func() { writeShuttingDown(w) })
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}: // free slot, admitted immediately
			default:
				if int(s.queued.Add(1)) > s.maxInflight {
					s.queued.Add(-1)
					s.shed.Inc()
					s.rejectTraced(w, r, func() {
						w.Header().Set("Retry-After", "1")
						writeErr(w, http.StatusTooManyRequests,
							"server at capacity (%d in flight, %d queued)", s.maxInflight, s.maxInflight)
					})
					return
				}
				select {
				case s.sem <- struct{}{}:
					s.queued.Add(-1)
				case <-r.Context().Done():
					s.queued.Add(-1)
					s.rejectTraced(w, r, func() { s.writeInferErr(w, r.Context().Err()) })
					return
				}
			}
			defer func() { <-s.sem }()
		}
		// Count before the draining re-check: Shutdown sets the flag and
		// then watches the count, so any request it could miss flag-setting
		// for is either visible in the count or sees the flag here.
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.draining.Load() {
			s.rejectTraced(w, r, func() { writeShuttingDown(w) })
			return
		}
		if err := s.faults.Fire(r.Context(), faultinject.ServerHandle); err != nil {
			s.rejectTraced(w, r, func() { s.writeInferErr(w, err) })
			return
		}
		next.ServeHTTP(w, r)
	})
}

// route registers a handler with per-route metrics (DESIGN.md §8) and the
// request's root span (DESIGN.md §11):
//
//	http.<path>.requests         counter
//	http.<path>.errors           counter of ≥400 responses
//	http.<path>.latency.seconds  histogram
//	span.<name>[.<stage>...]     span-path latency histograms
//
// The pattern's method prefix ("POST /v1/predict") is stripped for metric
// names, so both methods of a path share one series. The root span is named
// by the path minus its "/v1/" prefix ("predict", "predict-batch", ...) —
// handler stage spans nest under it, keeping the established span.predict.*
// metric names — and carries the route and request ID as attributes. The
// finished span tree is offered to the server's trace recorder; a ≥400
// response or a handler panic marks the trace errored, which the recorder
// always keeps.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	path := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		path = pattern[i+1:]
	}
	spanName := strings.TrimPrefix(path, "/v1/")
	reqs := s.metrics.Counter("http." + path + ".requests")
	errs := s.metrics.Counter("http." + path + ".errors")
	lat := s.metrics.Histogram("http."+path+".latency.seconds", nil)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		ctx := obs.WithRecorder(obs.WithRegistry(r.Context(), s.metrics), s.recorder)
		ctx, span := obs.StartSpan(ctx, spanName)
		span.SetAttr("route", path)
		if id := requestIDFrom(ctx); id != "" {
			span.SetAttr("request_id", id)
		}
		rw, isRW := w.(*respWriter)
		if isRW {
			rw.traceID = span.TraceID()
		}
		// A panic unwinds past the normal End below; the deferred check
		// still seals the span (and its trace) as errored so the recorder
		// keeps it — withRecover, further out, owns the 500.
		finished := false
		defer func() {
			if !finished {
				span.SetError()
				span.End()
			}
		}()
		h(w, r.WithContext(ctx))
		finished = true
		if isRW && rw.statusOrDefault() >= 400 {
			errs.Inc()
			span.SetError()
		}
		span.End()
		lat.Since(t0)
	})
}

// newIDPrefix seeds the per-process request-ID prefix.
func newIDPrefix() uint32 { return rand.Uint32() }
