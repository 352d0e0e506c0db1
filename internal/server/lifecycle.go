// Model lifecycle management: zero-downtime multi-model serving with shadow
// rollout (DESIGN.md §14).
//
// The server holds its serving engine behind an atomic pointer. Operators
// drive a small state machine over three endpoints:
//
//	POST /v1/models          load a candidate checkpoint (versioned
//	                         PYTHCKPT header, drift baseline inside) into a
//	                         second engine → state "shadowing"
//	POST /v1/models/promote  candidate becomes primary; the old primary is
//	                         parked as the rollback target
//	POST /v1/models/rollback discard a candidate, or restore the parked
//	                         previous primary
//	GET  /v1/models          report the state machine: per-slot id, path,
//	                         load time, vocabulary size, drift baseline
//
// While a candidate is shadowing, a deterministic seeded sample of live
// predict / predict-batch traffic is double-scored on it — after the
// primary response is written, on a separate goroutine, so the serving path
// is byte-identical with shadowing on or off (proved by the bit-identity
// test). Each shadow score records per-model obs.Labels telemetry:
// candidate latency, confidence distribution, drift-vs-baseline χ² (from
// the baseline the candidate's checkpoint carries), and the per-column
// agreement rate between primary and candidate — the evidence an operator
// reads before promoting.
//
// Swaps never drop in-flight requests: a request reads the primary pointer
// once and finishes on that engine, which a swap never changes; once no slot
// holds an engine, the garbage collector frees it after its last request.
// Promote builds a fresh, instrumented engine around the candidate's model
// rather than mutating the shadow engine, and rollback re-installs the
// parked slot with its engine, so engine configuration (instrumentation,
// worker counts, drift monitor) is immutable for an engine's lifetime.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// maxModelsBodyBytes caps the POST /v1/models control-plane body — it names
// a checkpoint, it does not carry one.
const maxModelsBodyBytes = 1 << 20

// modelSlot binds one loaded model version to the engine serving it; the
// engine holds the model, its drift monitor (nil without a baseline) and
// the pool settings. Slots are immutable once published through an atomic
// pointer. A promote publishes a new slot around the candidate's model and
// drift monitor; a rollback re-publishes the parked slot itself.
type modelSlot struct {
	id       string
	path     string // checkpoint path, "" for the boot-time model
	engine   *infer.Engine
	loadedAt time.Time
	mx       *slotMetrics
}

// slotMetrics are one model id's pre-resolved labeled telemetry handles.
// Counters are cumulative per id — reloading the same id continues its
// series, which is what an operator comparing attempts wants.
type slotMetrics struct {
	scored     *obs.Counter   // shadow.tables.scored{model=}
	errors     *obs.Counter   // shadow.errors{model=}
	compared   *obs.Counter   // shadow.columns.compared{model=}
	agree      *obs.Counter   // shadow.columns.agree{model=}
	latency    *obs.Histogram // shadow.latency.seconds{model=}
	confidence *obs.Histogram // shadow.confidence{model=}
}

// newSlotMetrics resolves the labeled per-model series for id and registers
// the derived agreement-rate gauge. Safe to call repeatedly for one id.
func (s *Server) newSlotMetrics(id string) *slotMetrics {
	l := func(name string) string { return obs.Labels(name, "model", id) }
	mx := &slotMetrics{
		scored:     s.metrics.Counter(l("shadow.tables.scored")),
		errors:     s.metrics.Counter(l("shadow.errors")),
		compared:   s.metrics.Counter(l("shadow.columns.compared")),
		agree:      s.metrics.Counter(l("shadow.columns.agree")),
		latency:    s.metrics.Histogram(l("shadow.latency.seconds"), nil),
		confidence: s.metrics.Histogram(l("shadow.confidence"), obs.ConfidenceBuckets),
	}
	compared, agree := mx.compared, mx.agree
	s.metrics.GaugeFunc(l("shadow.agreement.rate"), func() float64 {
		c := compared.Value()
		if c == 0 {
			return 0
		}
		return float64(agree.Value()) / float64(c)
	})
	return mx
}

// newServingEngine builds a fresh engine around m and its drift monitor
// (nil for none) with the primary engine's worker fan-out and batch bound,
// the server's fault set (so chaos suites reach lifecycle-created engines),
// and — for primary-role engines only — the shared metrics registry, where
// the monitor then takes over the unlabeled drift.* gauges. Shadow engines
// stay uninstrumented: candidate scoring must not pollute the primary's
// infer.* series; the shadow path records its own per-model labeled
// telemetry instead. Callers hold lcMu.
func (s *Server) newServingEngine(m *core.Model, drift *obs.DriftMonitor, instrumented bool) *infer.Engine {
	prim := s.primary.Load().engine
	eng := infer.New(m,
		infer.WithWorkers(prim.Workers()),
		infer.WithMaxBatch(prim.MaxBatch()),
		infer.WithFaults(s.faults),
	)
	if instrumented {
		eng.EnableMetrics(s.metrics)
	}
	eng.EnableDrift(drift)
	return eng
}

// recordSwap counts a lifecycle event under models.swap{event=}, annotates
// the SLO timeline, and logs it.
func (s *Server) recordSwap(event, detail string) {
	s.metrics.Counter(obs.Labels("models.swap", "event", event)).Inc()
	s.sloEng.Annotate(event, detail)
	if s.log != nil {
		s.log.Info("model "+event, "detail", detail)
	}
}

// --- deterministic shadow sampling ---

// splitmix64 is the SplitMix64 finalizer — the same mixer the trainer and
// trace recorder use for seeded determinism.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// shadowSampled decides, deterministically from the shadow seed and a
// per-decision sequence number, whether this request's tables are
// double-scored on the candidate. No global RNG, no lock: the same request
// sequence against the same seed samples identically on every run, which is
// what makes shadow behavior reproducible in tests and incident forensics.
func (s *Server) shadowSampled() bool {
	switch {
	case s.shadowSample <= 0:
		return false
	case s.shadowSample >= 1:
		return true
	}
	u := float64(splitmix64(shadowSeed+s.shadowSeq.Add(1))>>11) / float64(1<<53)
	return u < s.shadowSample
}

// maybeShadow double-scores one served request's tables on the candidate,
// when one is shadowing and the deterministic sampler selects the request.
// Called strictly after the primary response has been written: the shadow
// work runs on its own goroutine, against its own context, on the
// candidate slot it read here — nothing it does (slow scoring, candidate
// errors, injected faults) can reach back into the serving path. The
// goroutine is tracked in shadowWG so Shutdown and the lifecycle tests can
// prove none leak.
func (s *Server) maybeShadow(ts []*table.Table, primary [][]core.ColumnPrediction) {
	cand := s.candidate.Load()
	if cand == nil || !s.shadowSampled() {
		return
	}
	s.shadowWG.Add(1)
	go func() {
		defer s.shadowWG.Done()
		s.shadowScore(cand, ts, primary)
	}()
}

// shadowScore runs the candidate over the sampled tables and records the
// per-model comparison telemetry; the candidate engine feeds its own drift
// monitor. Errors (including injected ServerShadow faults) are counted,
// never propagated — the request they shadowed has long been answered.
func (s *Server) shadowScore(cand *modelSlot, ts []*table.Table, primary [][]core.ColumnPrediction) {
	ctx := context.Background()
	if err := s.faults.Fire(ctx, faultinject.ServerShadow); err != nil {
		cand.mx.errors.Inc()
		return
	}
	t0 := time.Now()
	out, err := cand.engine.PredictBatchCtx(ctx, ts)
	cand.mx.latency.Since(t0)
	if err != nil {
		cand.mx.errors.Inc()
		return
	}
	cand.mx.scored.Add(uint64(len(ts)))
	for i := range out {
		var pp []core.ColumnPrediction
		if i < len(primary) {
			pp = primary[i]
		}
		for j := range out[i] {
			p := &out[i][j]
			cand.mx.confidence.Observe(p.Confidence)
			if j < len(pp) {
				cand.mx.compared.Inc()
				if pp[j].Type == p.Type {
					cand.mx.agree.Inc()
				}
			}
		}
	}
}

// --- wire types ---

// ModelsRequest is the body of POST /v1/models.
type ModelsRequest struct {
	// ID names the candidate in telemetry labels and lifecycle responses.
	// Defaults to the checkpoint's base name without extension.
	ID string `json:"id,omitempty"`
	// Path locates the checkpoint. With a configured models directory
	// (serve -models-dir) it must be a relative path inside it; without
	// one, any path the process can read.
	Path string `json:"path"`
}

// SlotStatus describes one lifecycle slot in GET /v1/models.
type SlotStatus struct {
	ID       string    `json:"id"`
	Path     string    `json:"path,omitempty"`
	LoadedAt time.Time `json:"loaded_at"`
	Types    int       `json:"types"`
	Drift    bool      `json:"drift"` // per-model drift baseline loaded
}

// ModelsResponse is the body of GET /v1/models and the lifecycle POSTs.
type ModelsResponse struct {
	State     string      `json:"state"` // serving | shadowing | promoted | rolled-back
	Primary   *SlotStatus `json:"primary,omitempty"`
	Candidate *SlotStatus `json:"candidate,omitempty"`
	Previous  *SlotStatus `json:"previous,omitempty"`
	// ShadowSample is the configured sampling fraction of live traffic
	// double-scored on a shadowing candidate.
	ShadowSample float64 `json:"shadow_sample"`
}

func slotStatus(slot *modelSlot) *SlotStatus {
	if slot == nil {
		return nil
	}
	return &SlotStatus{
		ID:       slot.id,
		Path:     slot.path,
		LoadedAt: slot.loadedAt,
		Types:    len(slot.engine.Model().Types()),
		Drift:    slot.engine.Drift() != nil,
	}
}

// modelsResponse assembles the current state machine view. Callers hold
// lcMu (the POST handlers) or accept a racy-but-consistent snapshot (GET).
func (s *Server) modelsResponse(state string) ModelsResponse {
	return ModelsResponse{
		State:        state,
		Primary:      slotStatus(s.primary.Load()),
		Candidate:    slotStatus(s.candidate.Load()),
		Previous:     slotStatus(s.previous.Load()),
		ShadowSample: s.shadowSample,
	}
}

// resolveModelPath validates and resolves a requested checkpoint path
// against the configured models directory. With no directory configured the
// path is trusted as given (the operator runs the process; the API is not
// exposed beyond them) — with one, only local relative paths inside it are
// accepted, so a compromised catalog tool cannot walk the filesystem.
func (s *Server) resolveModelPath(req string) (string, error) {
	if req == "" {
		return "", fmt.Errorf("path is required")
	}
	if s.modelsDir == "" {
		return req, nil
	}
	if filepath.IsAbs(req) || !filepath.IsLocal(req) {
		return "", fmt.Errorf("path %q must be relative inside the models directory", req)
	}
	return filepath.Join(s.modelsDir, req), nil
}

// handleModelsLoad is POST /v1/models: load a candidate checkpoint into a
// shadow engine. A failed load changes nothing — the primary keeps serving
// and /v1/readyz stays ready (regression-tested). A second load replaces
// the previous candidate.
func (s *Server) handleModelsLoad(w http.ResponseWriter, r *http.Request) {
	var req ModelsRequest
	if !decodeJSONBody(w, r, maxModelsBodyBytes, &req) {
		return
	}
	path, err := s.resolveModelPath(req.Path)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := req.ID
	if id == "" {
		id = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}

	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	if err := s.faults.Fire(r.Context(), faultinject.ServerModelLoad); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "load model %q: %v", path, err)
		return
	}
	m, err := core.LoadFile(path, core.Config{Encoder: s.model().Encoder()})
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		writeErr(w, status, "load model %q: %v", path, err)
		return
	}

	drift := obs.NewDriftMonitor(m.DriftBaseline())
	drift.RegisterLabeled(s.metrics, "model", id) // nil-safe
	s.candidate.Store(&modelSlot{
		id:       id,
		path:     path,
		engine:   s.newServingEngine(m, drift, false),
		loadedAt: time.Now(),
		mx:       s.newSlotMetrics(id),
	})
	s.recordSwap("load", fmt.Sprintf("candidate %q from %s", id, path))
	writeJSON(w, http.StatusOK, s.modelsResponse("shadowing"))
}

// handleModelsStatus is GET /v1/models.
func (s *Server) handleModelsStatus(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if s.candidate.Load() != nil {
		state = "shadowing"
	}
	writeJSON(w, http.StatusOK, s.modelsResponse(state))
}

// handleModelsPromote is POST /v1/models/promote: the shadowing candidate
// becomes primary. From the pointer swap on, requests run on the
// candidate's model and drift monitor behind a freshly instrumented engine;
// requests already on the old primary (and shadow scores already on the
// candidate's shadow engine) finish there. The demoted primary slot is
// parked, engine and all, as the rollback target.
func (s *Server) handleModelsPromote(w http.ResponseWriter, r *http.Request) {
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	cand := s.candidate.Load()
	if cand == nil {
		writeErr(w, http.StatusConflict, "no candidate is shadowing")
		return
	}
	// A re-score scoring on the outgoing primary is obsolete the moment the
	// pointer moves — cancel it; the operator re-runs it on the new primary.
	s.cancelRescore("primary promoted mid-rescore")
	promoted := &modelSlot{
		id:       cand.id,
		path:     cand.path,
		engine:   s.newServingEngine(cand.engine.Model(), cand.engine.Drift(), true),
		loadedAt: cand.loadedAt,
		mx:       cand.mx,
	}
	old := s.primary.Swap(promoted)
	s.candidate.Store(nil)
	// The swap is already visible; an injected fault here models a slow or
	// crashing swap epilogue, not a failed swap.
	if err := s.faults.Fire(r.Context(), faultinject.ServerSwap); err != nil && s.log != nil {
		s.log.Warn("swap fault injected", "err", err)
	}
	// An older rollback target, if any, is abandoned.
	s.previous.Store(old)
	s.recordSwap("promote", fmt.Sprintf("%q promoted over %q", promoted.id, old.id))
	writeJSON(w, http.StatusOK, s.modelsResponse("promoted"))
}

// handleModelsRollback is POST /v1/models/rollback. Two meanings, by state:
// a shadowing candidate is discarded (shadow scores already running finish,
// primary untouched); with no candidate, the parked previous primary slot
// is re-installed with its engine and the rolled-back-from model is
// dropped. With neither, 409.
func (s *Server) handleModelsRollback(w http.ResponseWriter, r *http.Request) {
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	if cand := s.candidate.Swap(nil); cand != nil {
		s.recordSwap("rollback", fmt.Sprintf("candidate %q discarded", cand.id))
		writeJSON(w, http.StatusOK, s.modelsResponse("rolled-back"))
		return
	}
	prev := s.previous.Swap(nil)
	if prev == nil {
		writeErr(w, http.StatusConflict, "nothing to roll back: no candidate and no previous primary")
		return
	}
	// Rolling the primary back mid-rescore cancels the re-score: it is
	// scoring on the model being rolled away from. The shadow build aborts
	// and the old index keeps serving untouched; the next re-score starts
	// over from the lake.
	s.cancelRescore("rollback")
	// The parked engine is instrumented and feeds its own drift monitor
	// already; only the unlabeled drift.* gauges, which describe the current
	// primary, must move back to it.
	prev.engine.Drift().Register(s.metrics)
	old := s.primary.Swap(prev)
	if err := s.faults.Fire(r.Context(), faultinject.ServerSwap); err != nil && s.log != nil {
		s.log.Warn("swap fault injected", "err", err)
	}
	s.recordSwap("rollback", fmt.Sprintf("%q restored over %q", prev.id, old.id))
	writeJSON(w, http.StatusOK, s.modelsResponse("rolled-back"))
}
