package infer

import (
	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/obs"
)

// chunkBuckets sizes the chunk/batch histograms: power-of-two table counts
// up to 4096 (a union never holds more than core.MaxBatch, but the
// batch-size distribution above it is still informative).
var chunkBuckets = obs.ExpBuckets(1, 2, 13)

// engineMetrics holds the engine's pre-resolved metric handles (DESIGN.md
// §8). Handles are looked up once at wiring time so the serving path pays
// only atomic updates; a nil *engineMetrics (observability off) costs one
// branch per batch and per table.
//
// The scorer observes the stage series through the engine's
// core.StageHooks, which newEngineMetrics fills:
//
//	infer.stage.prepare.seconds   histogram, one observation per table
//	infer.stage.union.seconds     histogram, one observation per chunk
//	infer.stage.forward.seconds   histogram, one observation per chunk
//	infer.stage.decode.seconds    histogram, one observation per table
//	infer.chunk.tables            histogram of union-chunk sizes
//
// The engine observes the batch series itself:
//
//	infer.batch.tables            histogram of PredictBatchCtx input sizes
//	infer.batches / infer.tables  cumulative request counters
//
// Model-quality telemetry, one observation per served column prediction
// (recordPredictions):
//
//	infer.confidence                    histogram over ConfidenceBuckets
//	infer.predictions                   counter, total predictions served
//	infer.predictions.low_confidence    counter, confidence < 0.3 — the
//	                                    abstain-or-review band
//	infer.predicted{type="..."}         labeled counter per predicted type
type engineMetrics struct {
	reg     *obs.Registry
	batch   *obs.Histogram
	batches *obs.Counter
	tables  *obs.Counter

	confidence  *obs.Histogram
	predictions *obs.Counter
	lowConf     *obs.Counter
	// byType maps every model vocabulary type to its pre-resolved labeled
	// counter — the hot path pays one map read, never a registry lock.
	byType map[string]*obs.Counter
}

// lowConfidenceThreshold marks a served prediction as needing review; it
// mirrors the abstain band the paper's precision/coverage trade-off targets.
const lowConfidenceThreshold = 0.3

// newEngineMetrics resolves the engine's handles in reg: the stage
// histograms into hooks, for the scorer, and the rest into the returned
// engineMetrics.
func newEngineMetrics(reg *obs.Registry, types []string, hooks *core.StageHooks) *engineMetrics {
	hooks.Prepare = reg.Histogram("infer.stage.prepare.seconds", nil)
	hooks.Union = reg.Histogram("infer.stage.union.seconds", nil)
	hooks.Forward = reg.Histogram("infer.stage.forward.seconds", nil)
	hooks.Decode = reg.Histogram("infer.stage.decode.seconds", nil)
	hooks.Chunk = reg.Histogram("infer.chunk.tables", chunkBuckets)
	m := &engineMetrics{
		reg:     reg,
		batch:   reg.Histogram("infer.batch.tables", chunkBuckets),
		batches: reg.Counter("infer.batches"),
		tables:  reg.Counter("infer.tables"),

		confidence:  reg.Histogram("infer.confidence", obs.ConfidenceBuckets),
		predictions: reg.Counter("infer.predictions"),
		lowConf:     reg.Counter("infer.predictions.low_confidence"),
		byType:      make(map[string]*obs.Counter, len(types)),
	}
	for _, t := range types {
		m.byType[t] = reg.Counter(obs.Labels("infer.predicted", "type", t))
	}
	return m
}

// WithMetrics wires the engine's per-stage instrumentation into reg (nil
// disables instrumentation, the default).
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) { e.EnableMetrics(reg) }
}

// EnableMetrics attaches a metrics registry to the engine: per-stage
// latency histograms and chunk-size distributions, the batch counters and
// model-quality telemetry, plus the underlying encoder's cache gauges. It
// must be called before the engine serves traffic (it is not synchronized
// against concurrent PredictBatchCtx calls); once a registry is attached,
// later calls are no-ops.
func (e *Engine) EnableMetrics(reg *obs.Registry) {
	if reg == nil || e.metrics != nil {
		return
	}
	e.metrics = newEngineMetrics(reg, e.model.Types(), &e.hooks)
	if enc := e.model.Encoder(); enc != nil {
		enc.RegisterMetrics(reg)
	}
}

// EnableDrift attaches a drift monitor built from a training-time baseline:
// every served prediction feeds it, and the engine's owner exports its
// scores. A nil monitor is a no-op and leaves drift telemetry off, the
// default.
func (e *Engine) EnableDrift(m *obs.DriftMonitor) {
	if m != nil {
		e.drift = m
	}
}

// Drift returns the engine's drift monitor (nil when drift telemetry is
// off).
func (e *Engine) Drift() *obs.DriftMonitor { return e.drift }

// recordPredictions feeds one table's served predictions into the
// model-quality telemetry: the confidence histogram, per-type labeled
// counters, the low-confidence counter, and the drift monitor. Called once
// per decoded table by PredictBatchCtx; offline callers of the scorer
// (Evaluate, ComputeDriftBaseline) never reach it, so they cannot pollute
// serving telemetry.
func (e *Engine) recordPredictions(preds []core.ColumnPrediction) {
	m := e.metrics
	if m == nil && e.drift == nil {
		return
	}
	for i := range preds {
		p := &preds[i]
		if m != nil {
			m.predictions.Inc()
			m.confidence.Observe(p.Confidence)
			if p.Confidence < lowConfidenceThreshold {
				m.lowConf.Inc()
			}
			if c, ok := m.byType[p.Type]; ok {
				c.Inc()
			}
		}
		e.drift.Observe(p.Type, p.Confidence)
	}
}

// Metrics returns the registry the engine records into (nil when
// uninstrumented).
func (e *Engine) Metrics() *obs.Registry {
	if e.metrics == nil {
		return nil
	}
	return e.metrics.reg
}
