// Model lifecycle management: zero-downtime multi-model serving with shadow
// rollout (DESIGN.md §14).
//
// The server holds its serving engine in a modelSet's slot view. Operators
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
// Swaps never drop in-flight requests: a request reads the primary slot
// once and finishes on its engine, which a swap never changes; once no slot
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
	"sync"
	"sync/atomic"
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
// the pool settings. Slots are immutable once stored in a slot view. A
// promote stores a new slot around the candidate's model and drift monitor;
// a rollback re-stores the parked slot itself.
type modelSlot struct {
	id       string
	path     string // checkpoint path, "" for the boot-time model
	engine   *infer.Engine
	loadedAt time.Time
	mx       *slotMetrics
}

// slots is one view of the lifecycle, immutable once stored: primary serves
// and is never nil, candidate (when non-nil) shadows live traffic, previous
// parks the demoted primary as the rollback target.
type slots struct {
	primary, candidate, previous *modelSlot
}

// modelSet is the model lifecycle the server owns: the slot view, shadow
// sampling and the per-model series. Each transition stores one new view,
// under mu, so one load sees all three slots of one moment.
type modelSet struct {
	mu      sync.Mutex
	cur     atomic.Pointer[slots]
	metrics *obs.Registry
	faults  *faultinject.Set

	// shadowWG tracks in-flight shadow-scoring goroutines so Shutdown (and
	// the leak-checking tests) can prove none outlive the server.
	// shadowSlots, when non-nil, caps them at the admission limit.
	shadowSample float64
	shadowSeq    atomic.Uint64
	shadowWG     sync.WaitGroup
	shadowSlots  chan struct{}
}

// newModelSet makes eng the boot primary, whose pool settings are the
// template for every engine a later load or promote builds. At most
// maxInflight shadow scores run at once (unbounded when it is 0, as
// admission control is). The unlabeled drift.* gauges are registered once,
// here: they read the monitor of whichever slot is primary when scraped (0
// for one without a baseline), so no transition re-registers them.
func newModelSet(eng *infer.Engine, reg *obs.Registry, faults *faultinject.Set, shadowSample float64, maxInflight int) *modelSet {
	m := &modelSet{metrics: reg, faults: faults, shadowSample: shadowSample}
	if maxInflight > 0 {
		m.shadowSlots = make(chan struct{}, maxInflight)
	}
	boot := &modelSlot{id: bootModelID, engine: eng, loadedAt: time.Now(), mx: m.newSlotMetrics(bootModelID)}
	m.cur.Store(&slots{primary: boot})
	eng.Drift().RegisterLabeled(reg, "model", bootModelID) // nil-safe
	drift := func() *obs.DriftMonitor { return m.primary().engine.Drift() }
	reg.GaugeFunc("drift.type.score", func() float64 { return drift().TypeScore() })
	reg.GaugeFunc("drift.confidence.score", func() float64 { return drift().ConfidenceScore() })
	reg.GaugeFunc("drift.observations", func() float64 { return float64(drift().Observations()) })
	return m
}

// view returns the current slot view.
func (m *modelSet) view() *slots { return m.cur.Load() }

// primary returns the serving slot.
func (m *modelSet) primary() *modelSlot { return m.cur.Load().primary }

// slotMetrics are one model id's pre-resolved labeled telemetry handles.
// Counters are cumulative per id — reloading the same id continues its
// series, which is what an operator comparing attempts wants.
type slotMetrics struct {
	scored     *obs.Counter   // shadow.tables.scored{model=}
	errors     *obs.Counter   // shadow.errors{model=}
	skipped    *obs.Counter   // shadow.skipped{model=}
	compared   *obs.Counter   // shadow.columns.compared{model=}
	agree      *obs.Counter   // shadow.columns.agree{model=}
	latency    *obs.Histogram // shadow.latency.seconds{model=}
	confidence *obs.Histogram // shadow.confidence{model=}
}

// newSlotMetrics resolves the labeled per-model series for id and registers
// the derived agreement-rate gauge. Safe to call repeatedly for one id.
func (m *modelSet) newSlotMetrics(id string) *slotMetrics {
	l := func(name string) string { return obs.Labels(name, "model", id) }
	mx := &slotMetrics{
		scored:     m.metrics.Counter(l("shadow.tables.scored")),
		errors:     m.metrics.Counter(l("shadow.errors")),
		skipped:    m.metrics.Counter(l("shadow.skipped")),
		compared:   m.metrics.Counter(l("shadow.columns.compared")),
		agree:      m.metrics.Counter(l("shadow.columns.agree")),
		latency:    m.metrics.Histogram(l("shadow.latency.seconds"), nil),
		confidence: m.metrics.Histogram(l("shadow.confidence"), obs.ConfidenceBuckets),
	}
	compared, agree := mx.compared, mx.agree
	m.metrics.GaugeFunc(l("shadow.agreement.rate"), func() float64 {
		c := compared.Value()
		if c == 0 {
			return 0
		}
		return float64(agree.Value()) / float64(c)
	})
	return mx
}

// newEngine builds a fresh engine around model and its drift monitor (nil
// for none) with the primary engine's worker fan-out and batch bound and the
// server's fault set (so chaos suites reach lifecycle-created engines). Only
// a primary-role engine records into the shared registry: candidate scoring
// must not pollute the primary's infer.* series; the shadow path records its
// own per-model labeled telemetry instead. Caller holds mu.
func (m *modelSet) newEngine(model *core.Model, drift *obs.DriftMonitor, primary bool) *infer.Engine {
	prim := m.primary().engine
	eng := infer.New(model,
		infer.WithWorkers(prim.Workers()),
		infer.WithMaxBatch(prim.MaxBatch()),
		infer.WithFaults(m.faults),
	)
	if primary {
		eng.EnableMetrics(m.metrics)
	}
	eng.EnableDrift(drift)
	return eng
}

// load makes model, read from path, the shadowing candidate id, replacing
// any loaded one.
func (m *modelSet) load(id, path string, model *core.Model) *slots {
	m.mu.Lock()
	defer m.mu.Unlock()
	drift := obs.NewDriftMonitor(model.DriftBaseline())
	drift.RegisterLabeled(m.metrics, "model", id) // nil-safe
	eng := m.newEngine(model, drift, false)
	cand := &modelSlot{id: id, path: path, engine: eng, loadedAt: time.Now(), mx: m.newSlotMetrics(id)}
	v := *m.cur.Load()
	v.candidate = cand
	m.cur.Store(&v)
	return &v
}

// promote makes the candidate primary behind a fresh instrumented engine
// and parks the old primary as previous; nil when none is shadowing.
func (m *modelSet) promote() *slots {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	c := cur.candidate
	if c == nil {
		return nil
	}
	eng := m.newEngine(c.engine.Model(), c.engine.Drift(), true)
	p := &modelSlot{id: c.id, path: c.path, engine: eng, loadedAt: c.loadedAt, mx: c.mx}
	v := &slots{primary: p, previous: cur.primary}
	m.cur.Store(v)
	return v
}

// discard drops the shadowing candidate and returns it (nil: none dropped).
// A non-nil want makes it a compare-and-discard: only a candidate that is
// still want is dropped. POST /v1/models/rollback (any candidate) and the
// watchdog's auto-rollback (the candidate it measured) both end a candidate
// here; no transition stores a discarded slot again.
func (m *modelSet) discard(want *modelSlot) *modelSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur.candidate == nil || (want != nil && cur.candidate != want) {
		return nil
	}
	m.cur.Store(&slots{primary: cur.primary, previous: cur.previous})
	return cur.candidate
}

// restore re-installs the parked previous slot as primary, engine and all,
// and returns the new view and the primary it dropped (nil: none parked).
func (m *modelSet) restore() (*slots, *modelSlot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur.previous == nil {
		return cur, nil
	}
	v := &slots{primary: cur.previous, candidate: cur.candidate}
	m.cur.Store(v)
	return v, cur.primary
}

// recordEvent counts a lifecycle event under family{event=}, annotates the
// SLO timeline and logs it as "<subject> <event>". Model swaps and lake
// re-score runs leave the same trail, so an operator reading the timeline
// sees promote → rescore-start → rescore-done as one story.
func (s *Server) recordEvent(family, subject, event, detail string) {
	s.metrics.Counter(obs.Labels(family, "event", event)).Inc()
	s.sloEng.Annotate(event, detail)
	if s.log != nil {
		s.log.Info(subject+" "+event, "detail", detail)
	}
}

// swapEpilogue follows a transition that moved the primary: it cancels a
// re-score on a slot no longer primary, fires the ServerSwap fault (the new
// view is already visible, so a fault models a slow or crashing epilogue,
// not a failed swap) and records the event.
func (s *Server) swapEpilogue(ctx context.Context, event, detail, cancelReason string) {
	s.rescore.cancel(cancelReason)
	if err := s.faults.Fire(ctx, faultinject.ServerSwap); err != nil && s.log != nil {
		s.log.Warn("swap fault injected", "err", err)
	}
	s.recordEvent("models.swap", "model", event, detail)
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
func (m *modelSet) shadowSampled() bool {
	switch {
	case m.shadowSample <= 0:
		return false
	case m.shadowSample >= 1:
		return true
	}
	u := float64(splitmix64(shadowSeed+m.shadowSeq.Add(1))>>11) / float64(1<<53)
	return u < m.shadowSample
}

// maybeShadow double-scores one served request's tables on the candidate,
// when one is shadowing and the deterministic sampler selects the request.
// Called strictly after the primary response has been written: the shadow
// work runs on its own goroutine, against its own context, on the
// candidate slot it read here — nothing it does (slow scoring, candidate
// errors, injected faults) can reach back into the serving path. The
// goroutine is tracked in shadowWG so Shutdown and the lifecycle tests can
// prove none leak. A sampled request that finds every shadow slot taken is
// counted under shadow.skipped and not scored.
func (m *modelSet) maybeShadow(ts []*table.Table, primary [][]core.ColumnPrediction) {
	cand := m.view().candidate
	if cand == nil || !m.shadowSampled() {
		return
	}
	if m.shadowSlots != nil {
		select {
		case m.shadowSlots <- struct{}{}:
		default:
			cand.mx.skipped.Inc()
			return
		}
	}
	m.shadowWG.Add(1)
	go func() {
		defer m.shadowWG.Done()
		m.shadowScore(cand, ts, primary)
		if m.shadowSlots != nil {
			<-m.shadowSlots
		}
	}()
}

// shadowScore runs the candidate over the sampled tables and records the
// per-model comparison telemetry; the candidate engine feeds its own drift
// monitor. Errors (including injected ServerShadow faults) are counted,
// never propagated — the request they shadowed has long been answered.
func (m *modelSet) shadowScore(cand *modelSlot, ts []*table.Table, primary [][]core.ColumnPrediction) {
	ctx := context.Background()
	if err := m.faults.Fire(ctx, faultinject.ServerShadow); err != nil {
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

// waitShadows returns once every shadow-scoring goroutine has finished.
func (m *modelSet) waitShadows() { m.shadowWG.Wait() }

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

// response renders the slot view v in the given state.
func (m *modelSet) response(state string, v *slots) ModelsResponse {
	return ModelsResponse{
		State:        state,
		Primary:      slotStatus(v.primary),
		Candidate:    slotStatus(v.candidate),
		Previous:     slotStatus(v.previous),
		ShadowSample: m.shadowSample,
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
	var m *core.Model
	if err = s.faults.Fire(r.Context(), faultinject.ServerModelLoad); err == nil {
		m, err = core.LoadFile(path, core.Config{Encoder: s.model().Encoder()})
	}
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		writeErr(w, status, "load model %q: %v", path, err)
		return
	}
	v := s.models.load(id, path, m)
	s.recordEvent("models.swap", "model", "load", fmt.Sprintf("candidate %q from %s", id, path))
	writeJSON(w, http.StatusOK, s.models.response("shadowing", v))
}

// handleModelsStatus is GET /v1/models.
func (s *Server) handleModelsStatus(w http.ResponseWriter, r *http.Request) {
	v := s.models.view()
	state := "serving"
	if v.candidate != nil {
		state = "shadowing"
	}
	writeJSON(w, http.StatusOK, s.models.response(state, v))
}

// handleModelsPromote is POST /v1/models/promote: the shadowing candidate
// becomes primary. From the view store on, requests run on the candidate's
// model and drift monitor behind a freshly instrumented engine; requests
// already on the old primary (and shadow scores already on the candidate's
// shadow engine) finish there. A re-score scoring on the old primary is
// obsolete and is cancelled; the operator re-runs it on the new primary.
func (s *Server) handleModelsPromote(w http.ResponseWriter, r *http.Request) {
	v := s.models.promote()
	if v == nil {
		writeErr(w, http.StatusConflict, "no candidate is shadowing")
		return
	}
	s.swapEpilogue(r.Context(), "promote",
		fmt.Sprintf("%q promoted over %q", v.primary.id, v.previous.id), "primary promoted mid-rescore")
	writeJSON(w, http.StatusOK, s.models.response("promoted", v))
}

// handleModelsRollback is POST /v1/models/rollback. Two meanings, by state:
// a shadowing candidate is discarded (shadow scores already running finish,
// primary untouched); with no candidate, the parked previous primary slot
// is re-installed with its engine and the rolled-back-from model is
// dropped, cancelling a re-score running on it — the old index keeps
// serving and the next re-score starts over from the lake. With neither,
// 409.
func (s *Server) handleModelsRollback(w http.ResponseWriter, r *http.Request) {
	if cand := s.models.discard(nil); cand != nil {
		s.recordEvent("models.swap", "model", "rollback", fmt.Sprintf("candidate %q discarded", cand.id))
		writeJSON(w, http.StatusOK, s.models.response("rolled-back", s.models.view()))
		return
	}
	v, old := s.models.restore()
	if old == nil {
		writeErr(w, http.StatusConflict, "nothing to roll back: no candidate and no previous primary")
		return
	}
	s.swapEpilogue(r.Context(), "rollback", fmt.Sprintf("%q restored over %q", v.primary.id, old.id), "rollback")
	writeJSON(w, http.StatusOK, s.models.response("rolled-back", v))
}
