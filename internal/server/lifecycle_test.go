package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// savedCheckpoint writes the shared chaos model to dir as name; withDrift
// puts a baseline computed over the sample corpus into the checkpoint, so a
// candidate loaded from it shadows with per-model drift telemetry. The
// baseline goes on a private copy loaded back from the file: set on the
// shared model, it would ride along in every later checkpoint.
func savedCheckpoint(t *testing.T, dir, name string, withDrift bool) string {
	t.Helper()
	m := chaosModel(t)
	path := filepath.Join(dir, name)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if withDrift {
		tr := sampleRequest("baseline")
		tbl, err := tr.toTable()
		if err != nil {
			t.Fatal(err)
		}
		own, err := core.LoadFile(path, core.Config{Encoder: m.Encoder()})
		if err != nil {
			t.Fatal(err)
		}
		own.SetDriftBaseline(own.ComputeDriftBaseline([]*table.Table{tbl}))
		if err := own.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// readyzCode returns the current /v1/readyz status code.
func readyzCode(t *testing.T, s *Server) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	return rec.Code
}

// modelsPost drives one lifecycle POST and decodes its response.
func modelsPost(t *testing.T, s *Server, path string, body any, wantCode int) ModelsResponse {
	t.Helper()
	var rec *httptest.ResponseRecorder
	if body == nil {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	} else {
		rec = postJSON(t, s, path, body)
	}
	if rec.Code != wantCode {
		t.Fatalf("POST %s = %d, want %d: %s", path, rec.Code, wantCode, rec.Body)
	}
	var mr ModelsResponse
	if wantCode == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
			t.Fatalf("POST %s response: %v: %s", path, err, rec.Body)
		}
	}
	return mr
}

// drain shuts the server down so shadow goroutines finish before
// assertions read counters.
func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestModelLifecycleLoadPromoteRollback walks the whole state machine —
// serving → shadowing → promoted → rolled-back — checking the reported
// slots, the swap counters and the SLO annotations at each step, with
// traffic succeeding throughout.
func TestModelLifecycleLoadPromoteRollback(t *testing.T) {
	s := chaosServer(t, nil, nil)
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", true)

	if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
		t.Fatalf("predict before lifecycle: %d", rec.Code)
	}
	st := modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	if st.State != "shadowing" || st.Candidate == nil || st.Candidate.ID != "v2" {
		t.Fatalf("after load: %+v", st)
	}
	if !st.Candidate.Drift {
		t.Fatal("candidate checkpoint's drift baseline not loaded")
	}
	if st.Primary == nil || st.Primary.ID != "boot" {
		t.Fatalf("primary after load: %+v", st.Primary)
	}

	// Shadowed traffic: primary answers, candidate double-scores async.
	for i := 0; i < 4; i++ {
		if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
			t.Fatalf("predict while shadowing: %d", rec.Code)
		}
	}

	rec := getPath(t, s, "/v1/models")
	var got ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.State != "shadowing" {
		t.Fatalf("GET /v1/models = %s (err %v)", rec.Body, err)
	}

	st = modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)
	if st.State != "promoted" || st.Primary.ID != "v2" || st.Candidate != nil {
		t.Fatalf("after promote: %+v", st)
	}
	if st.Previous == nil || st.Previous.ID != "boot" {
		t.Fatalf("previous after promote: %+v", st.Previous)
	}
	if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
		t.Fatalf("predict after promote: %d", rec.Code)
	}

	st = modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	if st.State != "rolled-back" || st.Primary.ID != "boot" || st.Previous != nil {
		t.Fatalf("after rollback: %+v", st)
	}
	if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
		t.Fatalf("predict after rollback: %d", rec.Code)
	}
	// The rollback target is one-shot.
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusConflict)

	drain(t, s)
	snap := s.metrics.Snapshot()
	for _, event := range []string{"load", "promote", "rollback"} {
		key := fmt.Sprintf("models.swap{event=%q}", event)
		if snap.Counters[key] != 1 {
			t.Fatalf("%s = %d, want 1", key, snap.Counters[key])
		}
	}
	// Lifecycle events annotate the SLO timeline.
	events := map[string]bool{}
	for _, a := range s.sloEng.Status().Events {
		events[a.Event] = true
	}
	for _, event := range []string{"load", "promote", "rollback"} {
		if !events[event] {
			t.Fatalf("SLO timeline missing %q annotation: %+v", event, s.sloEng.Status().Events)
		}
	}
}

// TestSwappedPrimaryFeedsDrift: whichever slot serves — a promoted
// candidate, or the boot model restored by rollback — its predictions feed
// its drift monitor, through both the unlabeled drift.* gauges (the
// current primary, which the drift-type-score rule watches) and its own
// labeled series. The restored slot also keeps its original load time.
func TestSwappedPrimaryFeedsDrift(t *testing.T) {
	dir := t.TempDir()
	boot, err := core.LoadFile(savedCheckpoint(t, dir, "boot.bin", true), core.Config{Encoder: chaosModel(t).Encoder()})
	if err != nil {
		t.Fatal(err)
	}
	eng := infer.New(boot, infer.WithWorkers(2))
	eng.EnableDrift(obs.NewDriftMonitor(boot.DriftBaseline()))
	s := NewWithEngine(eng, 0)
	var before ModelsResponse
	getJSON(t, s, "/v1/models", &before)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: savedCheckpoint(t, dir, "v2.bin", true)}, http.StatusOK)

	const predicts = 5
	cols := float64(len(sampleRequest("").Columns))
	servingFeedsDrift := func(step, model string) {
		t.Helper()
		labeled := fmt.Sprintf("drift.observations{model=%q}", model)
		g0 := s.metrics.Snapshot().Gauges
		for i := 0; i < predicts; i++ {
			if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
				t.Fatalf("%s: predict %d", step, rec.Code)
			}
		}
		g1 := s.metrics.Snapshot().Gauges
		for _, name := range []string{"drift.observations", labeled} {
			if got := g1[name] - g0[name]; got != predicts*cols {
				t.Errorf("%s: %s rose by %v over %d predicts, want %v", step, name, got, predicts, predicts*cols)
			}
		}
	}
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)
	servingFeedsDrift("after promote", "v2")
	st := modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	servingFeedsDrift("after rollback", "boot")
	if !st.Primary.LoadedAt.Equal(before.Primary.LoadedAt) {
		t.Errorf("restored primary loaded_at = %v, want the boot slot's %v", st.Primary.LoadedAt, before.Primary.LoadedAt)
	}
	drain(t, s)
}

// TestDriftGaugesFollowBaselineLessPrimary: the unlabeled drift.* gauges
// read whichever slot is primary when scraped. Promoting a checkpoint
// without a drift baseline makes them read that primary's 0, not the demoted
// boot model's frozen counts; a rollback makes them count on the boot
// monitor again; and a server booted without a baseline reports them at 0
// instead of leaving them out.
func TestDriftGaugesFollowBaselineLessPrimary(t *testing.T) {
	dir := t.TempDir()
	boot, err := core.LoadFile(savedCheckpoint(t, dir, "boot.bin", true), core.Config{Encoder: chaosModel(t).Encoder()})
	if err != nil {
		t.Fatal(err)
	}
	eng := infer.New(boot, infer.WithWorkers(2))
	eng.EnableDrift(obs.NewDriftMonitor(boot.DriftBaseline()))
	s := NewWithEngine(eng, 0)
	cols := float64(len(sampleRequest("").Columns))
	predicts := func(n int) float64 {
		t.Helper()
		for i := 0; i < n; i++ {
			if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
				t.Fatalf("predict: %d", rec.Code)
			}
		}
		return s.metrics.Snapshot().Gauges["drift.observations"]
	}
	if got := predicts(3); got != 3*cols {
		t.Fatalf("boot: drift.observations = %v, want %v", got, 3*cols)
	}
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: savedCheckpoint(t, dir, "v2.bin", false)}, http.StatusOK)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)
	if got := predicts(5); got != 0 {
		t.Errorf("baseline-less v2 serving: drift.observations = %v, want its 0", got)
	}
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	if got := predicts(1); got != 4*cols {
		t.Errorf("boot restored: drift.observations = %v, want %v", got, 4*cols)
	}
	drain(t, s)

	bare := chaosServer(t, nil, nil)
	if got, ok := bare.metrics.Snapshot().Gauges["drift.observations"]; !ok || got != 0 {
		t.Errorf("boot without a baseline: drift.observations = %v (registered %t), want 0", got, ok)
	}
}

// TestModelsStatusDuringPromoteEpilogue: a transition stores its three slots
// at once, before its epilogue, so GET /v1/models during a promote held in
// its ServerSwap epilogue already reports the promoted state in full:
// primary v2, no candidate, the demoted boot model parked as previous.
func TestModelsStatusDuringPromoteEpilogue(t *testing.T) {
	srvFaults := faultinject.New().On(faultinject.ServerSwap, faultinject.Sleep(150*time.Millisecond))
	s := chaosServer(t, nil, srvFaults)
	defer drain(t, s)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: savedCheckpoint(t, t.TempDir(), "v2.bin", false)}, http.StatusOK)

	promoted := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/promote", nil))
		promoted <- rec.Code
	}()
	// Fired counts before the stall runs: the promote is in its epilogue.
	for deadline := time.Now().Add(5 * time.Second); srvFaults.Fired(faultinject.ServerSwap) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("promote never reached its swap epilogue")
		}
		time.Sleep(time.Millisecond)
	}
	var mid ModelsResponse
	getJSON(t, s, "/v1/models", &mid)
	if code := <-promoted; code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	if mid.Primary == nil || mid.Primary.ID != "v2" || mid.Candidate != nil || mid.Previous == nil || mid.Previous.ID != "boot" {
		t.Fatalf("GET /v1/models mid-epilogue: state=%s primary=%v candidate=%t previous=%v",
			mid.State, mid.Primary, mid.Candidate != nil, mid.Previous)
	}
}

// TestShadowScoringRecordsTelemetry: with a candidate shadowing at 100%
// sampling, every predict/predict-batch request lands in the candidate's
// labeled shadow series — scored tables, latency, confidence, agreement
// (exactly 1: the candidate is the same checkpoint) and drift against the
// baseline its checkpoint carries.
func TestShadowScoringRecordsTelemetry(t *testing.T) {
	s := chaosServer(t, nil, nil)
	path := savedCheckpoint(t, t.TempDir(), "cand.bin", true)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "cand", Path: path}, http.StatusOK)

	const singles = 3
	for i := 0; i < singles; i++ {
		if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
			t.Fatalf("predict: %d", rec.Code)
		}
	}
	if rec := postJSON(t, s, "/v1/predict-batch", batchBody(2)); rec.Code != http.StatusOK {
		t.Fatalf("predict-batch: %d", rec.Code)
	}

	drain(t, s)
	snap := s.metrics.Snapshot()
	scored := snap.Counters[`shadow.tables.scored{model="cand"}`]
	if want := uint64(singles + 2); scored != want {
		t.Fatalf("shadow.tables.scored = %d, want %d", scored, want)
	}
	compared := snap.Counters[`shadow.columns.compared{model="cand"}`]
	agree := snap.Counters[`shadow.columns.agree{model="cand"}`]
	if compared == 0 || agree != compared {
		t.Fatalf("agreement: %d/%d — same checkpoint must agree on every column", agree, compared)
	}
	if got := snap.Gauges[`shadow.agreement.rate{model="cand"}`]; got != 1 {
		t.Fatalf("shadow.agreement.rate = %v, want 1", got)
	}
	if h := snap.Histograms[`shadow.latency.seconds{model="cand"}`]; h.Count != uint64(singles+1) {
		t.Fatalf("shadow.latency.seconds count = %d, want %d", h.Count, singles+1)
	}
	if h := snap.Histograms[`shadow.confidence{model="cand"}`]; h.Count != compared {
		t.Fatalf("shadow.confidence count = %d, want %d", h.Count, compared)
	}
	if got := snap.Gauges[`drift.observations{model="cand"}`]; got == 0 {
		t.Fatal("drift monitor built from the candidate checkpoint's drift baseline observed nothing")
	}
	if snap.Counters[`shadow.errors{model="cand"}`] != 0 {
		t.Fatalf("shadow.errors = %d, want 0", snap.Counters[`shadow.errors{model="cand"}`])
	}
	// The same series are scrapable as labeled Prometheus families.
	prom := getPath(t, s, "/v1/metrics?format=prom").Body.String()
	for _, want := range []string{
		`shadow_tables_scored{model="cand"}`,
		`shadow_agreement_rate{model="cand"}`,
		`shadow_latency_seconds_bucket{model="cand",`,
		`drift_observations{model="cand"}`,
		`models_swap{event="load"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom exposition missing %s:\n%s", want, prom)
		}
	}
}

// TestShadowScoringBoundedByAdmission: at most the admission limit of
// shadow scores run at once. While the held ones occupy every slot, a
// sampled request is counted under shadow.skipped and not scored. With
// admission off, shadow scoring stays unbounded.
func TestShadowScoringBoundedByAdmission(t *testing.T) {
	const requests = 10
	for _, tc := range []struct {
		maxInflight     int
		scored, skipped uint64
	}{{0, requests, 0}, {2, 2, requests - 2}} {
		release := make(chan struct{})
		held := faultinject.New().On(faultinject.ServerShadow, func(context.Context) error {
			<-release
			return nil
		})
		s := chaosServer(t, nil, held, WithMaxInflight(tc.maxInflight))
		path := savedCheckpoint(t, t.TempDir(), "cand.bin", false)
		modelsPost(t, s, "/v1/models", ModelsRequest{ID: "cand", Path: path}, http.StatusOK)
		for i := 0; i < requests; i++ {
			if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
				t.Fatalf("predict: %d", rec.Code)
			}
		}
		close(release)
		drain(t, s)
		snap := s.metrics.Snapshot()
		scored, skipped := snap.Counters[`shadow.tables.scored{model="cand"}`], snap.Counters[`shadow.skipped{model="cand"}`]
		if scored != tc.scored || skipped != tc.skipped {
			t.Fatalf("max inflight %d: %d scored, %d skipped; want %d and %d",
				tc.maxInflight, scored, skipped, tc.scored, tc.skipped)
		}
	}
}

// TestShadowSamplerDeterministic pins the seeded sampler's contract: two
// samplers agree decision-for-decision, the edge fractions short-circuit,
// and the sampled rate lands near the configured fraction.
func TestShadowSamplerDeterministic(t *testing.T) {
	a := &modelSet{shadowSample: 0.5}
	b := &modelSet{shadowSample: 0.5}
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		da, db := a.shadowSampled(), b.shadowSampled()
		if da != db {
			t.Fatalf("decision %d diverged between same-seed samplers", i)
		}
		if da {
			hits++
		}
	}
	if hits < n/3 || hits > 2*n/3 {
		t.Fatalf("sample=0.5 hit %d/%d — sampler badly biased", hits, n)
	}
	off := &modelSet{shadowSample: 0}
	on := &modelSet{shadowSample: 1}
	for i := 0; i < 10; i++ {
		if off.shadowSampled() {
			t.Fatal("sample=0 sampled a request")
		}
		if !on.shadowSampled() {
			t.Fatal("sample=1 skipped a request")
		}
	}
	if off.shadowSeq.Load() != 0 || on.shadowSeq.Load() != 0 {
		t.Fatal("edge fractions must not consume sequence numbers")
	}
}

// TestSwapFaultLogged: a swap fault injected into promote and into rollback
// is logged once each through the server's one logger, so the text format
// WithLogger builds carries it as the JSON format does.
func TestSwapFaultLogged(t *testing.T) {
	var buf bytes.Buffer
	srvFaults := faultinject.New().On(faultinject.ServerSwap, faultinject.Err(errInjected))
	s := chaosServer(t, nil, srvFaults, WithLogger(log.New(&buf, "", 0)))
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)

	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	drain(t, s)

	want := `level=WARN msg="swap fault injected" err="injected handler fault"`
	if got := strings.Count(buf.String(), want); got != 2 {
		t.Fatalf("%d lines with %s, want 2 (promote, rollback); log:\n%s", got, want, buf.String())
	}
}

// TestReadyzStaysReadyThroughPromote is the readiness regression test for
// the lifecycle: /v1/readyz must answer 200 before, during (with the swap
// epilogue artificially stretched) and after promote and rollback — a model
// swap is not a readiness event.
func TestReadyzStaysReadyThroughPromote(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerSwap, faultinject.Sleep(100*time.Millisecond))
	s := chaosServer(t, nil, srvFaults)
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)

	if got := readyzCode(t, s); got != http.StatusOK {
		t.Fatalf("readyz at boot: %d", got)
	}
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	if got := readyzCode(t, s); got != http.StatusOK {
		t.Fatalf("readyz while shadowing: %d", got)
	}

	// Poll readiness continuously while the promote sits in its stretched
	// swap window.
	done := make(chan struct{})
	go func() {
		defer close(done)
		modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)
	}()
	for {
		select {
		case <-done:
			goto promoted
		default:
		}
		if got := readyzCode(t, s); got != http.StatusOK {
			t.Errorf("readyz during promote: %d", got)
			<-done
			return
		}
	}
promoted:
	if got := readyzCode(t, s); got != http.StatusOK {
		t.Fatalf("readyz after promote: %d", got)
	}
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	if got := readyzCode(t, s); got != http.StatusOK {
		t.Fatalf("readyz after rollback: %d", got)
	}
	drain(t, s)
}

// TestFailedCandidateLoadDoesNotFlipReadiness is the second readiness
// regression test: a load that fails — missing file, corrupt checkpoint, a
// checkpoint trained on another encoder, or an injected ServerModelLoad
// fault — returns its error and changes nothing: readyz stays 200, traffic
// keeps flowing, no candidate appears.
func TestFailedCandidateLoadDoesNotFlipReadiness(t *testing.T) {
	srvFaults := faultinject.New().
		On(faultinject.ServerModelLoad, faultinject.Times(1, faultinject.Err(errInjected)))
	s := chaosServer(t, nil, srvFaults)
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(corrupt, []byte("PYTHCKPTgarbage-not-a-checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A candidate trained on a deeper encoder of the primary's width: the
	// candidate shares the primary's encoder, so it must be refused.
	deeperEnc := chaosModel(t).Encoder().Config()
	deeperEnc.Layers = 2
	cfg := core.DefaultConfig(lm.NewEncoder(deeperEnc))
	cfg.Epochs = 1
	c := data.GenerateSportsTables(data.SportsConfig{NumTables: 4, Seed: 11, MinRows: 5, MaxRows: 8, Domains: 2})
	deeper, err := core.TrainCtx(context.Background(), c, []int{0, 1}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deeperPath := filepath.Join(dir, "deeper.bin")
	if err := deeper.SaveFile(deeperPath); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  ModelsRequest
		want int
	}{
		{"injected fault", ModelsRequest{ID: "f", Path: filepath.Join(dir, "whatever.bin")}, http.StatusUnprocessableEntity},
		{"missing file", ModelsRequest{ID: "m", Path: filepath.Join(dir, "missing.bin")}, http.StatusNotFound},
		{"corrupt checkpoint", ModelsRequest{ID: "c", Path: corrupt}, http.StatusUnprocessableEntity},
		{"other encoder", ModelsRequest{ID: "d", Path: deeperPath}, http.StatusUnprocessableEntity},
		{"empty path", ModelsRequest{ID: "e"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		modelsPost(t, s, "/v1/models", tc.req, tc.want)
		if got := readyzCode(t, s); got != http.StatusOK {
			t.Fatalf("%s: readyz flipped to %d", tc.name, got)
		}
		if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
			t.Fatalf("%s: predict after failed load: %d", tc.name, rec.Code)
		}
	}
	rec := getPath(t, s, "/v1/models")
	var st ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "serving" || st.Candidate != nil {
		t.Fatalf("failed loads left lifecycle state: %+v", st)
	}
}

// TestModelsDirConfinement: with -models-dir set, only local relative paths
// inside the directory resolve; absolute paths and escapes are rejected
// before any file is touched.
func TestModelsDirConfinement(t *testing.T) {
	dir := t.TempDir()
	savedCheckpoint(t, dir, "ok.bin", false)
	outside := savedCheckpoint(t, t.TempDir(), "outside.bin", false)
	s := chaosServer(t, nil, nil, WithModelsDir(dir))

	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "esc1", Path: outside}, http.StatusBadRequest)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "esc2", Path: "../outside.bin"}, http.StatusBadRequest)
	st := modelsPost(t, s, "/v1/models", ModelsRequest{Path: "ok.bin"}, http.StatusOK)
	if st.Candidate == nil || st.Candidate.ID != "ok" {
		t.Fatalf("confined load: %+v", st.Candidate) // default id = base name sans extension
	}
	drain(t, s)
}

// TestPromoteWithoutCandidate: the state machine rejects transitions that
// make no sense instead of guessing.
func TestPromoteWithoutCandidate(t *testing.T) {
	s := chaosServer(t, nil, nil)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusConflict)
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusConflict)
}

// TestRollbackDiscardsCandidate: rollback while shadowing throws the
// candidate away and leaves the primary untouched.
func TestRollbackDiscardsCandidate(t *testing.T) {
	s := chaosServer(t, nil, nil)
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	st := modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	if st.State != "rolled-back" || st.Candidate != nil || st.Primary.ID != "boot" {
		t.Fatalf("discard: %+v", st)
	}
	drain(t, s)
}

// TestShadowIsolationBitIdentity is the isolation acceptance test: a server
// shadow-scoring 100% of traffic on a candidate — with injected shadow
// latency and errors on top — must produce byte-identical primary response
// bodies to a server with no candidate at all, request for request.
func TestShadowIsolationBitIdentity(t *testing.T) {
	// Shadow chaos: every shadow task is delayed, and some fail outright.
	shadowFaults := faultinject.New().
		On(faultinject.ServerShadow, faultinject.Sleep(time.Millisecond)).
		On(faultinject.ServerShadow, faultinject.After(3, faultinject.Err(errInjected)))
	shadowed := chaosServer(t, nil, shadowFaults)
	plain := chaosServer(t, nil, nil)
	path := savedCheckpoint(t, t.TempDir(), "cand.bin", true)
	modelsPost(t, shadowed, "/v1/models", ModelsRequest{ID: "cand", Path: path}, http.StatusOK)

	// A deterministic mixed corpus: single predicts, batches, an indexed
	// table, malformed bodies.
	type call struct {
		path string
		body any
	}
	corpus := []call{
		{"/v1/predict", sampleRequest("")},
		{"/v1/predict", TableRequest{Name: "salaries", Columns: []ColumnRequest{
			{Header: "Team", Values: []string{"IND", "LAL", "BOS"}},
			{Header: "Salary", Values: []string{"1200000", "44000000", "950000"}},
		}}},
		{"/v1/predict-batch", batchBody(3)},
		{"/v1/index", sampleRequest("iso-1")},
		{"/v1/predict", TableRequest{Name: "bad"}}, // 400 on both
		{"/v1/predict-batch", batchBody(1)},
	}
	// Error bodies carry a per-request random trace ID; identity is over
	// everything but that field.
	stripTraceID := regexp.MustCompile(`,?"trace_id":"[0-9a-f]+"`)
	for i, c := range corpus {
		a := postJSON(t, shadowed, c.path, c.body)
		b := postJSON(t, plain, c.path, c.body)
		if a.Code != b.Code {
			t.Fatalf("call %d %s: status %d (shadowed) vs %d (plain)", i, c.path, a.Code, b.Code)
		}
		ab := stripTraceID.ReplaceAll(a.Body.Bytes(), nil)
		bb := stripTraceID.ReplaceAll(b.Body.Bytes(), nil)
		if !bytes.Equal(ab, bb) {
			t.Fatalf("call %d %s: shadowing perturbed the primary response:\n shadowed: %s\n plain:    %s",
				i, c.path, a.Body, b.Body)
		}
	}

	drain(t, shadowed)
	// The shadow path really ran — scored some, errored some (After(3)).
	snap := shadowed.metrics.Snapshot()
	if snap.Counters[`shadow.tables.scored{model="cand"}`] == 0 {
		t.Fatal("shadow scored nothing — isolation proved vacuously")
	}
	if snap.Counters[`shadow.errors{model="cand"}`] == 0 {
		t.Fatal("injected shadow faults never fired")
	}
}
