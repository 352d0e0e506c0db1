package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs/slo"
)

func getJSON(t *testing.T, h http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: decode %q: %v", path, rec.Body, err)
		}
	}
	return rec
}

// TestReadyzReflectsLifecycle: ready while serving, 503 once draining — the
// signal load balancers gate on, distinct from liveness.
func TestReadyzReflectsLifecycle(t *testing.T) {
	s := trainedServer(t)
	var body map[string]any
	if rec := getJSON(t, s, "/v1/readyz", &body); rec.Code != http.StatusOK {
		t.Fatalf("readyz while serving = %d: %s", rec.Code, rec.Body)
	}
	if body["ready"] != true || body["status"] != "ready" {
		t.Fatalf("readyz body = %v", body)
	}
	// healthz is also still OK pre-drain; the two probes agree here.
	if rec := getJSON(t, s, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := getJSON(t, s, "/v1/readyz", &body); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", rec.Code)
	}
	if body["ready"] != false {
		t.Fatalf("draining readyz body = %v", body)
	}
}

// TestSLOEndpointReportsTraffic: served requests show up as good events in
// the /v1/slo report, while probe endpoints stay out of the accounting.
func TestSLOEndpointReportsTraffic(t *testing.T) {
	s := trainedServer(t)
	// Probes first: none of these may count as SLO events.
	for i := 0; i < 5; i++ {
		getJSON(t, s, "/v1/healthz", nil)
		getJSON(t, s, "/v1/readyz", nil)
		getJSON(t, s, "/v1/metrics", nil)
		getJSON(t, s, "/v1/slo", nil)
	}
	var st slo.Status
	getJSON(t, s, "/v1/slo", &st)
	if len(st.Objectives) != 2 {
		t.Fatalf("objectives = %d, want the availability+latency defaults", len(st.Objectives))
	}
	for _, o := range st.Objectives {
		if o.Good != 0 || o.Bad != 0 {
			t.Fatalf("probe traffic leaked into SLO accounting: %+v", o)
		}
	}
	// One good predict and one bad body (400 — still a *served* request).
	if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
		t.Fatalf("predict = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte("{")))
	s.ServeHTTP(httptest.NewRecorder(), req)

	getJSON(t, s, "/v1/slo", &st)
	for _, o := range st.Objectives {
		if o.Name == "availability" && (o.Good != 2 || o.Bad != 0) {
			t.Fatalf("availability after 200+400 = %d good %d bad, want 2/0", o.Good, o.Bad)
		}
	}
	// The same accounting is visible as registry counters.
	snap := s.metrics.Snapshot()
	if got := snap.Counters["slo.availability.events.good"]; got != 2 {
		t.Fatalf("slo.availability.events.good = %d, want 2", got)
	}
}

// TestSheddingMovesBurnRate is the closed-loop acceptance test (ISSUE 7):
// drive load past -max-inflight, watch http.shed rise, and assert the SLO
// burn-rate gauges reflect the induced budget spend — deterministically,
// via a fake clock that pins every event into one bucket so the expected
// burn rates are exact rationals over known good/bad counts.
func TestSheddingMovesBurnRate(t *testing.T) {
	clk := time.Unix(1_700_000_000, 0)
	eng := slo.New(slo.DefaultObjectives(0.5, 50*time.Millisecond),
		slo.WithNow(func() time.Time { return clk }))
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(150*time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithMaxInflight(1), WithSLO(eng))

	raw, _ := json.Marshal(sampleRequest(""))
	send := func(codes chan<- int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		codes <- rec.Code
	}
	slow := make(chan int, 2)
	var wg sync.WaitGroup
	// One admitted (sleeping in the injected fault), one queued: capacity is
	// now exactly full, and both will eventually succeed with 200.
	wg.Add(1)
	go func() { defer wg.Done(); send(slow) }()
	for deadline := time.Now().Add(2 * time.Second); s.inflight.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { defer wg.Done(); send(slow) }()
	for deadline := time.Now().Add(2 * time.Second); s.queued.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Four more, synchronously: with the semaphore held and the queue full,
	// every one must be shed with 429 — no timing in play.
	const shedWant = 4
	for i := 0; i < shedWant; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("overload request %d = %d, want 429", i, rec.Code)
		}
	}
	wg.Wait()
	close(slow)
	for code := range slow {
		if code != http.StatusOK {
			t.Fatalf("held request finished %d, want 200", code)
		}
	}

	snap := s.metrics.Snapshot()
	if got := snap.Counters["http.shed"]; got != shedWant {
		t.Fatalf("http.shed = %d, want %d", got, shedWant)
	}
	// Availability: 2 good (the slow 200s), 4 bad (the sheds) → bad fraction
	// 4/6, burn rate (4/6)/(1−0.5) = 4/3 on every window (the fake clock
	// never moved, so all events share one bucket).
	wantAvail := (4.0 / 6.0) / 0.5
	for _, w := range []string{"5m", "30m", "1h", "6h"} {
		got := snap.Gauges["slo.availability.burn_rate."+w]
		if math.Abs(got-wantAvail) > 1e-12 {
			t.Fatalf("availability burn(%s) = %v, want %v", w, got, wantAvail)
		}
	}
	// Latency: the two 200s each spent ≥150ms in the injected sleep — over
	// the 50ms threshold — so all 6 events are latency-bad: burn 1/(1−0.5)=2.
	if got := snap.Gauges["slo.latency.burn_rate.5m"]; math.Abs(got-2) > 1e-12 {
		t.Fatalf("latency burn(5m) = %v, want 2", got)
	}
	// Budget: availability remaining = 1 − 4/3 = −1/3; and the /v1/slo
	// report carries the same counts.
	if got := snap.Gauges["slo.availability.budget.remaining"]; math.Abs(got-(1-wantAvail)) > 1e-12 {
		t.Fatalf("availability budget remaining = %v, want %v", got, 1-wantAvail)
	}
	var st slo.Status
	getJSON(t, s, "/v1/slo", &st)
	for _, o := range st.Objectives {
		if o.Name == "availability" && (o.Good != 2 || o.Bad != 4) {
			t.Fatalf("/v1/slo availability = %d good %d bad, want 2/4", o.Good, o.Bad)
		}
		if o.Name == "latency" && (o.Good != 0 || o.Bad != 6) {
			t.Fatalf("/v1/slo latency = %d good %d bad, want 0/6", o.Good, o.Bad)
		}
	}
}

// TestClientDisconnectNotDebited: a 499 (client vanished) must not count as
// an SLO event in either direction.
func TestClientDisconnectNotDebited(t *testing.T) {
	eng := slo.New(slo.DefaultObjectives(0.9, time.Second))
	srvFaults := faultinject.New()
	s := chaosServer(t, nil, srvFaults, WithSLO(eng))
	ctx, cancel := context.WithCancel(context.Background())
	srvFaults.On(faultinject.ServerHandle, faultinject.Cancel(cancel))
	raw, _ := json.Marshal(sampleRequest(""))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled request = %d, want 499", rec.Code)
	}
	for _, o := range eng.Status().Objectives {
		if o.Good != 0 || o.Bad != 0 {
			t.Fatalf("499 leaked into SLO accounting: %+v", o)
		}
	}
}
