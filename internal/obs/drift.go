// Model-quality telemetry: drift detection between the distribution a model
// was trained against and the distribution it is serving (DESIGN.md §11).
//
// At train time the trainer runs the fresh model over its own training
// split and saves the resulting predicted-type distribution and confidence
// histogram inside the model's checkpoint, as its baseline. At serve time a DriftMonitor accumulates the same two distributions from
// live predictions and continuously scores their distance to the baseline
// with a chi-square-style statistic. The scores are exported as gauges —
// when the serving mix departs from the training mix (new table shapes,
// upstream schema changes, a stale model), drift.type.score and
// drift.confidence.score climb and an operator's dashboard says so before
// accuracy numbers (which need labels nobody has in production) ever could.
package obs

import (
	"sync"
	"sync/atomic"
)

// ConfidenceBuckets is the shared bucketing for prediction confidences:
// twenty 0.05-wide buckets spanning (0, 1]. The baseline and the monitor
// must agree on bounds for the histogram distance to be meaningful, so both
// sides count through ConfidenceBucket.
var ConfidenceBuckets = LinearBuckets(0.05, 0.05, 20)

// ConfidenceBucket returns the index of the ConfidenceBuckets bucket that
// confidence c falls in: the first bound c does not exceed, or
// len(ConfidenceBuckets), the overflow bucket, when c exceeds them all.
func ConfidenceBucket(c float64) int {
	i := 0
	for i < len(ConfidenceBuckets) && c > ConfidenceBuckets[i] {
		i++
	}
	return i
}

// DriftBaseline is the training-time reference distribution: how often each
// semantic type was predicted over the training split, and how confident
// those predictions were. The model checkpoint carries it
// (core.Model.SetDriftBaseline).
type DriftBaseline struct {
	// TypeCounts maps predicted type name → prediction count.
	TypeCounts map[string]uint64
	// ConfCounts are per-bucket confidence counts over ConfidenceBuckets;
	// len(ConfidenceBuckets)+1 with the overflow bucket last.
	ConfCounts []uint64
}

// Total returns the baseline's total prediction count.
func (b *DriftBaseline) Total() uint64 {
	var n uint64
	for _, c := range b.TypeCounts {
		n += c
	}
	return n
}

// chiSquareDistance is a symmetric chi-square-style distance between two
// count vectors aligned by index: 0.5·Σ (pᵢ−qᵢ)²/(pᵢ+qᵢ) over the
// normalized distributions. 0 for identical distributions, 1 for disjoint
// support; robust to zero bins (a bin empty on both sides contributes 0).
func chiSquareDistance(p, q []float64) float64 {
	var pt, qt float64
	for _, v := range p {
		pt += v
	}
	for _, v := range q {
		qt += v
	}
	if pt == 0 || qt == 0 {
		return 0
	}
	var d float64
	for i := range p {
		pi, qi := p[i]/pt, q[i]/qt
		if s := pi + qi; s > 0 {
			d += (pi - qi) * (pi - qi) / s
		}
	}
	return 0.5 * d
}

// DriftMonitor accumulates the served prediction distribution and scores it
// against a training-time baseline. Observe is called from the inference
// hot path, so the per-type map is guarded by a mutex sized for short
// critical sections and the confidence histogram is the lock-free bucket
// array. All methods are nil-safe.
type DriftMonitor struct {
	baseline DriftBaseline

	mu         sync.Mutex
	typeCounts map[string]uint64

	confCounts []atomic.Uint64 // len(ConfidenceBuckets)+1, overflow last
	n          atomic.Uint64
}

// NewDriftMonitor builds a monitor against the given baseline. Returns nil
// (inert) when the baseline is empty — no reference, nothing to compare.
func NewDriftMonitor(baseline DriftBaseline) *DriftMonitor {
	if baseline.Total() == 0 {
		return nil
	}
	return &DriftMonitor{
		baseline:   baseline,
		typeCounts: map[string]uint64{},
		confCounts: make([]atomic.Uint64, len(ConfidenceBuckets)+1),
	}
}

// Observe records one served prediction.
func (m *DriftMonitor) Observe(predictedType string, confidence float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.typeCounts[predictedType]++
	m.mu.Unlock()
	m.confCounts[ConfidenceBucket(confidence)].Add(1)
	m.n.Add(1)
}

// Observations returns how many served predictions have been recorded.
func (m *DriftMonitor) Observations() uint64 {
	if m == nil {
		return 0
	}
	return m.n.Load()
}

// TypeScore is the chi-square distance between the served and baseline
// predicted-type distributions, in [0, 1]. 0 until anything is observed.
func (m *DriftMonitor) TypeScore() float64 {
	if m == nil || m.n.Load() == 0 {
		return 0
	}
	// Align both count maps over the union of type names.
	m.mu.Lock()
	served := make(map[string]uint64, len(m.typeCounts))
	for k, v := range m.typeCounts {
		served[k] = v
	}
	m.mu.Unlock()
	names := map[string]struct{}{}
	for k := range served {
		names[k] = struct{}{}
	}
	for k := range m.baseline.TypeCounts {
		names[k] = struct{}{}
	}
	p := make([]float64, 0, len(names))
	q := make([]float64, 0, len(names))
	for k := range names {
		p = append(p, float64(m.baseline.TypeCounts[k]))
		q = append(q, float64(served[k]))
	}
	return chiSquareDistance(p, q)
}

// ConfidenceScore is the chi-square distance between the served and
// baseline confidence histograms, in [0, 1]. 0 until anything is observed.
func (m *DriftMonitor) ConfidenceScore() float64 {
	if m == nil || m.n.Load() == 0 {
		return 0
	}
	p := make([]float64, len(m.baseline.ConfCounts))
	q := make([]float64, len(m.confCounts))
	for i, c := range m.baseline.ConfCounts {
		p[i] = float64(c)
	}
	for i := range m.confCounts {
		q[i] = float64(m.confCounts[i].Load())
	}
	return chiSquareDistance(p, q)
}

// RegisterLabeled exports the monitor's scores as labeled gauge series —
// drift.type.score{model="v2"} and friends — so several monitors (the
// serving model and a shadow candidate) coexist in one registry, each as
// its own series of the same family. With no label pairs it registers the
// bare names. Re-registering a label set replaces the callbacks (GaugeFunc
// semantics), so reloading a model id repoints its series at the fresh
// monitor. Nil-safe on both sides.
func (m *DriftMonitor) RegisterLabeled(r *Registry, kv ...string) {
	if m == nil || r == nil {
		return
	}
	r.GaugeFunc(Labels("drift.type.score", kv...), m.TypeScore)
	r.GaugeFunc(Labels("drift.confidence.score", kv...), m.ConfidenceScore)
	r.GaugeFunc(Labels("drift.observations", kv...), func() float64 { return float64(m.Observations()) })
}
