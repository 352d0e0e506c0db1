package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
)

// testClock is the shared fake clock the SLO engine and the watchdog both
// read, so burn-rate windows and rule hysteresis advance in lockstep.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// chaosFlightDir keeps failed runs' flight records under testdata so CI can
// upload them as the failure artifact; a passing run cleans up after itself,
// and the last one out removes the shared parent (os.Remove refuses a
// non-empty directory, so a failed test's records stay).
func chaosFlightDir(t *testing.T) string {
	t.Helper()
	parent := filepath.Join("testdata", "flight-chaos")
	dir := filepath.Join(parent, t.Name())
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
			os.Remove(parent)
		}
	})
	return dir
}

// TestWatchdogChaosBurstClosesTheLoop is the acceptance scenario for the
// watchdog (DESIGN.md §16): a burst beyond -max-inflight sheds requests,
// the induced burn rate trips slo-fast-burn on the next tick, the firing
// alert captures a flight record whose traces include the rejected
// requests, the re-score budget is halved while the alert is live and
// restored when it clears — and nothing leaks.
func TestWatchdogChaosBurstClosesTheLoop(t *testing.T) {
	clk := newTestClock()
	// Three-nines objective: 4 shed out of 6 events is a burn rate of
	// (4/6)/0.01 ≈ 66.7 on every window — far over the fast-burn pair
	// threshold of 14.4, and deterministic because the clock never moves
	// while events land.
	eng := slo.New(slo.DefaultObjectives(0.99, 50*time.Millisecond), slo.WithNow(clk.now))
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(150*time.Millisecond))
	rec := obs.NewTraceRecorder(obs.TraceConfig{SampleRate: 1, Buffer: 64})
	s := chaosServer(t, nil, srvFaults,
		WithMaxInflight(1), WithSLO(eng), WithWatchNow(clk.now),
		WithFlightDir(chaosFlightDir(t), 8), WithTraceRecorder(rec))
	if s.flights == nil {
		t.Fatal("flight recorder not enabled")
	}
	base := runtime.NumGoroutine()

	// Saturate: one admitted (asleep in the injected fault), one queued —
	// capacity exactly full — then four synchronous requests that must shed.
	raw, _ := json.Marshal(sampleRequest(""))
	slow := make(chan int, 2)
	var wg sync.WaitGroup
	send := func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		slow <- rr.Code
	}
	wg.Add(1)
	go send()
	for deadline := time.Now().Add(2 * time.Second); s.inflight.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go send()
	for deadline := time.Now().Add(2 * time.Second); s.queued.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	var shedBody errorResponse
	for i := 0; i < 4; i++ {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw))
		s.ServeHTTP(rr, req)
		if rr.Code != http.StatusTooManyRequests {
			t.Fatalf("overload request %d = %d, want 429", i, rr.Code)
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &shedBody); err != nil {
			t.Fatalf("429 body: %v: %s", err, rr.Body)
		}
	}
	wg.Wait()
	close(slow)
	for code := range slow {
		if code != http.StatusOK {
			t.Fatalf("held request finished %d, want 200", code)
		}
	}

	// The shed error body names a trace that really exists (satellite
	// regression: admission rejections used to be invisible to /v1/traces).
	if shedBody.TraceID == "" {
		t.Fatal("429 body carries no trace_id")
	}
	var traces TracesResponse
	getJSON(t, s, "/v1/traces?error=1", &traces)
	found := false
	for _, tr := range traces.Traces {
		if tr.TraceID == shedBody.TraceID {
			found = true
			if tr.Root != "reject" {
				t.Fatalf("shed trace root = %q, want reject", tr.Root)
			}
		}
	}
	if !found {
		t.Fatalf("shed trace %s not in /v1/traces (%d traces)", shedBody.TraceID, traces.Count)
	}

	// One tick: the fast burn has no for-duration, so it must fire now.
	if got := s.rescore.cfg.Budget.Limit(); got != 2 {
		t.Fatalf("pre-alert budget limit = %d, want base 2", got)
	}
	s.Watchdog().Tick()
	var rep watch.Report
	getJSON(t, s, "/v1/alerts", &rep)
	var fast *watch.Alert
	for i := range rep.Active {
		if rep.Active[i].Rule == "slo-fast-burn" {
			fast = &rep.Active[i]
		}
	}
	if fast == nil {
		t.Fatalf("slo-fast-burn not firing after tick: %+v", rep.Active)
	}
	if fast.Value <= slo.FastBurnThreshold {
		t.Fatalf("alert value %v not over threshold %v", fast.Value, slo.FastBurnThreshold)
	}
	if fast.FlightID == "" {
		t.Fatal("firing alert captured no flight record")
	}

	// The action fired: re-score budget halved from its base of 2.
	if got := s.rescore.cfg.Budget.Limit(); got != 1 {
		t.Fatalf("budget limit while fast burn fires = %d, want 1", got)
	}
	snap := s.metrics.Snapshot()
	if got := snap.Counters[`watch.actions{action="rescore-throttle"}`]; got != 1 {
		t.Fatalf("rescore-throttle actions = %d, want 1", got)
	}

	// The flight record is listed and loadable over HTTP, and its evidence
	// holds the saturated window: the slow predicts and the shed rejects.
	var list FlightListResponse
	getJSON(t, s, "/v1/flight", &list)
	if list.Count == 0 {
		t.Fatal("flight list empty after capture")
	}
	var fr watch.FlightRecord
	if rr := getJSON(t, s, "/v1/flight/"+fast.FlightID, &fr); rr.Code != http.StatusOK {
		t.Fatalf("GET flight %s = %d", fast.FlightID, rr.Code)
	}
	if fr.Rule != "slo-fast-burn" || fr.GoroutineProfile == "" || fr.HeapProfile == "" || fr.Goroutines <= 0 {
		t.Fatalf("flight record incomplete: rule %q, goroutines %d", fr.Rule, fr.Goroutines)
	}
	var sawReject, sawPredict bool
	for _, tr := range fr.Traces {
		if tr.Root == "reject" && tr.Error {
			// The reject root span is the rejected request end to end — the
			// evidence of the saturated window, down to the route attribute.
			if rs := tr.RootSpan(); rs == nil || rs.Attr("route") != "/v1/predict" {
				t.Fatalf("reject trace lacks its route attribute: %+v", tr)
			}
			sawReject = true
		}
		if tr.Root == "predict" {
			sawPredict = true
		}
	}
	if !sawReject || !sawPredict {
		t.Fatalf("flight traces missing the saturated window: reject=%v predict=%v of %d traces",
			sawReject, sawPredict, len(fr.Traces))
	}
	// And the timeline got the annotation.
	annotated := false
	for _, ev := range eng.Status().Events {
		if ev.Event == "alert-firing" && ev.Detail == "slo-fast-burn" {
			annotated = true
		}
	}
	if !annotated {
		t.Fatal("alert-firing annotation missing from SLO timeline")
	}

	// Clear: ten minutes on, the 5m window has no events, the pair minimum
	// drops to zero, and after a full cool-down interval the alert clears
	// and the budget is restored.
	clk.advance(10 * time.Minute)
	s.Watchdog().Tick() // clear tick: cool-down starts
	if got := s.rescore.cfg.Budget.Limit(); got != 1 {
		t.Fatalf("budget restored before cool-down elapsed: %d", got)
	}
	clk.advance(s.Watchdog().Interval() + time.Second)
	s.Watchdog().Tick()
	getJSON(t, s, "/v1/alerts", &rep)
	for _, a := range rep.Active {
		if a.Rule == "slo-fast-burn" {
			t.Fatalf("slo-fast-burn still active after cool-down: %+v", a)
		}
	}
	cleared := false
	for _, a := range rep.Recent {
		if a.Rule == "slo-fast-burn" && a.State == "cleared" {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("cleared slo-fast-burn not in recent history")
	}
	if got := s.rescore.cfg.Budget.Limit(); got != 2 {
		t.Fatalf("budget limit after clear = %d, want base 2", got)
	}
	snap = s.metrics.Snapshot()
	if got := snap.Counters[`watch.actions{action="rescore-restore"}`]; got != 1 {
		t.Fatalf("rescore-restore actions = %d, want 1", got)
	}

	drain(t, s)
	settleGoroutines(t, base)
}

// TestWatchdogAutoRollbackOncePerCandidate: a candidate whose agreement
// rate stays pinned under the gate for the window is rolled back by the
// watchdog exactly once — recorded as models.swap{event="auto-rollback"}
// with a timeline annotation — and a freshly loaded candidate, a new slot
// with a fresh rule window, is rolled back in its turn.
func TestWatchdogAutoRollbackOncePerCandidate(t *testing.T) {
	clk := newTestClock()
	s := chaosServer(t, nil, nil,
		WithWatchNow(clk.now), WithShadowAgreement(0.85, 2*time.Second))
	path := savedCheckpoint(t, t.TempDir(), "cand.bin", false)

	loadPinnedLow := func(id string) {
		st := modelsPost(t, s, "/v1/models", ModelsRequest{ID: id, Path: path}, http.StatusOK)
		if st.State != "shadowing" {
			t.Fatalf("after load: %+v", st)
		}
		// Pin agreement at 10% over plenty of comparisons — far below the
		// 85% gate, and over the minShadowCompared floor.
		cand := s.models.view().candidate
		cand.mx.compared.Add(100)
		cand.mx.agree.Add(10)
	}
	swaps := func() uint64 {
		return s.metrics.Snapshot().Counters[`models.swap{event="auto-rollback"}`]
	}

	loadPinnedLow("v2")
	// Tick 1 primes the per-candidate signal (candidate changed → signal
	// unavailable → hysteresis restarts for the new pointer).
	s.Watchdog().Tick()
	// Tick 2 starts the breach window; the for-duration hasn't elapsed.
	clk.advance(time.Second)
	s.Watchdog().Tick()
	if got := swaps(); got != 0 {
		t.Fatalf("rolled back before the agreement window elapsed: %d swaps", got)
	}
	if s.models.view().candidate == nil {
		t.Fatal("candidate discarded before the agreement window elapsed")
	}
	// Tick 3, window elapsed: fire → auto-rollback.
	clk.advance(2 * time.Second)
	s.Watchdog().Tick()
	if got := swaps(); got != 1 {
		t.Fatalf("auto-rollback swaps = %d, want 1", got)
	}
	if s.models.view().candidate != nil {
		t.Fatal("candidate still loaded after auto-rollback")
	}
	var mr ModelsResponse
	getJSON(t, s, "/v1/models", &mr)
	if mr.State != "serving" || mr.Candidate != nil {
		t.Fatalf("state after auto-rollback: %+v", mr)
	}
	annotated := false
	for _, ev := range s.sloEng.Status().Events {
		if ev.Event == "auto-rollback" && strings.Contains(ev.Detail, "v2") {
			annotated = true
		}
	}
	if !annotated {
		t.Fatal("auto-rollback annotation missing from SLO timeline")
	}

	// More ticks with no candidate: the signal is unavailable, the rule
	// clears, and no second rollback follows.
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		s.Watchdog().Tick()
	}
	if got := swaps(); got != 1 {
		t.Fatalf("rollback fired again with no candidate: %d swaps", got)
	}

	// A new candidate is a new slot with a fresh rule window: the same
	// sustained disagreement rolls it back too — once.
	loadPinnedLow("v3")
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		s.Watchdog().Tick()
	}
	if got := swaps(); got != 2 {
		t.Fatalf("second candidate: auto-rollback swaps = %d, want 2", got)
	}
	drain(t, s)
}

// TestWatchdogAutoRollbackSparesUnmeasuredCandidate: the auto-rollback
// runs after the firing tick's flight capture. A candidate loaded during
// that capture replaced the one whose agreement fired the rule, was never
// measured, and must stay loaded, with no auto-rollback recorded for it.
func TestWatchdogAutoRollbackSparesUnmeasuredCandidate(t *testing.T) {
	clk := newTestClock()
	path := savedCheckpoint(t, t.TempDir(), "cand.bin", false)
	var s *Server
	// The capture of v2's firing tick is held while v3 loads. Tick runs on
	// the test goroutine, and so does this action.
	held := false
	hold := faultinject.New().On(faultinject.WatchCapture, func(context.Context) error {
		if !held {
			held = true
			modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v3", Path: path}, http.StatusOK)
		}
		return nil
	})
	s = chaosServer(t, nil, hold, WithWatchNow(clk.now), WithShadowAgreement(0.85, 2*time.Second),
		WithFlightDir(chaosFlightDir(t), 4))
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	v2 := s.models.view().candidate
	v2.mx.compared.Add(100)
	v2.mx.agree.Add(10)

	s.Watchdog().Tick() // primes the per-candidate signal
	clk.advance(time.Second)
	s.Watchdog().Tick() // the breach window starts
	clk.advance(2 * time.Second)
	s.Watchdog().Tick() // fires on v2: capture (v3 loads), then the action
	if !held {
		t.Fatal("the firing tick took no flight capture")
	}
	if cand := s.models.view().candidate; cand == nil || cand.id != "v3" {
		t.Fatalf("candidate after the firing tick = %+v, want v3 still loaded", cand)
	}
	if got := s.metrics.Snapshot().Counters[`models.swap{event="auto-rollback"}`]; got != 0 {
		t.Fatalf("auto-rollback swaps = %d, want 0", got)
	}
	for _, ev := range s.sloEng.Status().Events {
		if ev.Event == "auto-rollback" {
			t.Fatalf("auto-rollback recorded: %s", ev.Detail)
		}
	}
	drain(t, s)
}

// TestWatchdogQueueAndShedRules: sustained queue saturation and a non-zero
// shed delta fire their rules under the fake clock.
func TestWatchdogQueueAndShedRules(t *testing.T) {
	clk := newTestClock()
	s := chaosServer(t, nil, nil, WithMaxInflight(1), WithWatchNow(clk.now))
	interval := s.Watchdog().Interval()

	// Prime the shed delta cursor, then shed synthetically.
	s.Watchdog().Tick()
	s.shed.Add(3)
	clk.advance(interval)
	s.Watchdog().Tick() // breach starts (delta 3 > 0)
	s.shed.Add(1)
	clk.advance(interval)
	s.Watchdog().Tick() // for-duration elapsed → fires
	var rep watch.Report
	getJSON(t, s, "/v1/alerts", &rep)
	firing := map[string]bool{}
	for _, a := range rep.Active {
		firing[a.Rule] = true
	}
	if !firing["shed-rate"] {
		t.Fatalf("shed-rate not firing: %+v", rep.Active)
	}

	// Queue saturation reads queued/maxInflight directly; fake it via the
	// admission gauges the middleware maintains.
	s.queued.Store(int64(s.maxInflight))
	clk.advance(interval)
	s.Watchdog().Tick()
	clk.advance(interval)
	s.Watchdog().Tick()
	getJSON(t, s, "/v1/alerts", &rep)
	firing = map[string]bool{}
	for _, a := range rep.Active {
		firing[a.Rule] = true
	}
	if !firing["queue-saturated"] {
		t.Fatalf("queue-saturated not firing: %+v", rep.Active)
	}
	s.queued.Store(0)
	drain(t, s)
}

// TestFlightEndpointsEmptyAndMissing: the flight API serves an empty list
// when the recorder is disabled and a JSON 404 for unknown records.
func TestFlightEndpointsEmptyAndMissing(t *testing.T) {
	s := chaosServer(t, nil, nil)
	var list FlightListResponse
	if rr := getJSON(t, s, "/v1/flight", &list); rr.Code != http.StatusOK {
		t.Fatalf("GET /v1/flight = %d", rr.Code)
	}
	if list.Count != 0 || list.Flights == nil {
		t.Fatalf("disabled recorder list = %+v, want empty non-nil", list)
	}
	rr := getPath(t, s, "/v1/flight/flight-00000099-nope")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown flight = %d, want 404", rr.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("404 body: %s", rr.Body)
	}
	drain(t, s)
}

// TestWatchdogStoppedByShutdown: Shutdown stops a running watchdog loop —
// no ticks after, no goroutine left.
func TestWatchdogStoppedByShutdown(t *testing.T) {
	s := chaosServer(t, nil, nil, WithWatchInterval(time.Millisecond))
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Watchdog().Start(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.Snapshot().Counters["watch.ticks"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	drain(t, s) // Shutdown calls watchdog.Stop()
	n := s.metrics.Snapshot().Counters["watch.ticks"]
	time.Sleep(20 * time.Millisecond)
	if got := s.metrics.Snapshot().Counters["watch.ticks"]; got != n {
		t.Fatalf("watchdog still ticking after Shutdown: %d → %d", n, got)
	}
	settleGoroutines(t, base)
}

// TestErrorBodiesCarryTraceID: 5xx errors written inside the middleware
// chain name the request's trace in the JSON body.
func TestErrorBodiesCarryTraceID(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Err(errInjected))
	s := chaosServer(t, nil, srvFaults)
	rr := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rr.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.TraceID == "" {
		t.Fatalf("500 body has no trace_id: %s", rr.Body)
	}
	var traces TracesResponse
	getJSON(t, s, "/v1/traces?error=1", &traces)
	found := false
	for _, tr := range traces.Traces {
		if tr.TraceID == er.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("error trace %s not captured", er.TraceID)
	}
	drain(t, s)
}

// TestWatchdogRescoreStallRule: a re-score wedged inside a batch stops
// moving its cursor; after ten stalled intervals the rescore-stalled rule
// fires, and cancelling the run takes the signal away again.
func TestWatchdogRescoreStallRule(t *testing.T) {
	clk := newTestClock()
	srvFaults := faultinject.New().
		On(faultinject.RescoreBatch, faultinject.Sleep(5*time.Second))
	s := chaosServer(t, nil, srvFaults, WithWatchNow(clk.now), WithRescoreBatch(1))
	interval := s.Watchdog().Interval()

	// A drift-enabled primary on the way: promote exercises the drift rule's
	// live branch during the same ticks (its score sits at 0, no breach).
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", true)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)

	for _, id := range []string{"a", "b", "c"} {
		if rec := postJSON(t, s, "/v1/index", sampleRequest(id)); rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d", id, rec.Code)
		}
	}
	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("start rescore = %d: %s", rec.Code, rec.Body)
	}
	// The run reads "pending" until its goroutine enters Run, and the stall
	// signal is unavailable until then: tick only once it runs.
	waitRescore(t, s, "running")

	s.Watchdog().Tick() // primes the per-run cursor
	for i := 0; i < 11; i++ {
		clk.advance(interval)
		s.Watchdog().Tick()
	}
	var rep watch.Report
	getJSON(t, s, "/v1/alerts", &rep)
	stalled := false
	for _, a := range rep.Active {
		if a.Rule == "rescore-stalled" {
			stalled = true
		}
	}
	if !stalled {
		t.Fatalf("rescore-stalled not firing after 11 stalled intervals: %+v", rep.Active)
	}

	// Rollback cancels the run; with no active run the signal goes away and
	// the alert cools down.
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	waitRescore(t, s, "cancelled")
	clk.advance(interval)
	s.Watchdog().Tick()
	getJSON(t, s, "/v1/alerts", &rep)
	for _, a := range rep.Active {
		if a.Rule == "rescore-stalled" {
			t.Fatal("rescore-stalled still active after the run cancelled")
		}
	}
	drain(t, s)
}

// TestWatchdogSurvivesBrokenFlightDir: a -flight-dir that cannot be opened
// (here: an existing regular file) disables capture but not alerting.
func TestWatchdogSurvivesBrokenFlightDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An SLO engine with no objectives also drives the burn signals into
	// their unavailable branch: the rules stay quiet instead of firing on a
	// zero-valued read.
	s := chaosServer(t, nil, nil, WithFlightDir(file, 4), WithSLO(slo.New(nil)))
	if s.flights != nil {
		t.Fatal("flight recorder opened on a regular file")
	}
	if s.Watchdog() == nil {
		t.Fatal("watchdog missing without a flight dir")
	}
	s.Watchdog().Tick()
	var rep watch.Report
	if rr := getJSON(t, s, "/v1/alerts", &rep); rr.Code != http.StatusOK {
		t.Fatalf("GET /v1/alerts = %d", rr.Code)
	}
	if len(rep.Active) != 0 {
		t.Fatalf("alerts active on an idle server: %+v", rep.Active)
	}
	drain(t, s)
}
