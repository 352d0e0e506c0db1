// Package nn builds neural-network training machinery on top of the
// autodiff tape: named parameter collections, initialization, dense layers,
// the Adam optimizer, learning-rate schedules, gradient clipping, early
// stopping, and gob-based persistence.
package nn

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/tensor"
)

// Params is a named collection of trainable matrices. Names are stable keys
// used by optimizers (per-parameter state) and persistence.
type Params struct {
	names []string
	byKey map[string]*tensor.Matrix
}

// NewParams returns an empty parameter collection.
func NewParams() *Params {
	return &Params{byKey: make(map[string]*tensor.Matrix)}
}

// Add registers matrix m under name. Panics on duplicates — a duplicate
// almost always means two layers were wired to the same key by mistake.
func (p *Params) Add(name string, m *tensor.Matrix) *tensor.Matrix {
	if _, ok := p.byKey[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p.byKey[name] = m
	p.names = append(p.names, name)
	return m
}

// Get returns the parameter registered under name, or panics.
func (p *Params) Get(name string) *tensor.Matrix {
	m, ok := p.byKey[name]
	if !ok {
		panic(fmt.Sprintf("nn: unknown parameter %q", name))
	}
	return m
}

// Has reports whether name is registered.
func (p *Params) Has(name string) bool { _, ok := p.byKey[name]; return ok }

// Names returns parameter names in registration order.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, m := range p.byKey {
		n += len(m.Data)
	}
	return n
}

// Snapshot returns a deep copy of all parameter values keyed by name.
func (p *Params) Snapshot() map[string][]float64 {
	out := make(map[string][]float64, len(p.byKey))
	for name, m := range p.byKey {
		out[name] = append([]float64(nil), m.Data...)
	}
	return out
}

// Restore copies a snapshot produced by Snapshot back into the parameters.
func (p *Params) Restore(snap map[string][]float64) {
	for name, data := range snap {
		if m, ok := p.byKey[name]; ok && len(m.Data) == len(data) {
			copy(m.Data, data)
		}
	}
}

// savedParam is the gob wire format for one parameter.
type savedParam struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// EncodeGob writes all parameters in a stable (sorted-name) order through
// a gob encoder, letting callers interleave them with their own metadata
// on one stream.
func (p *Params) EncodeGob(enc *gob.Encoder) error {
	names := p.Names()
	sort.Strings(names)
	out := make([]savedParam, 0, len(names))
	for _, n := range names {
		m := p.byKey[n]
		out = append(out, savedParam{Name: n, Rows: m.Rows, Cols: m.Cols, Data: m.Data})
	}
	return enc.Encode(out)
}

// DecodeGob reads parameters written by EncodeGob into this collection.
// Every saved parameter must exist here with an identical shape: one whose
// declared shape or data length disagrees with the model is an error,
// never a silent partial copy — a corrupted or truncated checkpoint must be
// rejected, not half-loaded (see core.FuzzModelLoad).
func (p *Params) DecodeGob(dec *gob.Decoder) error {
	var in []savedParam
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	loaded := make(map[string]bool, len(in))
	for _, sp := range in {
		m, ok := p.byKey[sp.Name]
		if !ok {
			return fmt.Errorf("nn: saved parameter %q not present in model", sp.Name)
		}
		if loaded[sp.Name] {
			return fmt.Errorf("nn: saved parameter %q appears twice", sp.Name)
		}
		loaded[sp.Name] = true
		if m.Rows != sp.Rows || m.Cols != sp.Cols {
			return fmt.Errorf("nn: parameter %q shape %dx%d, saved %dx%d",
				sp.Name, m.Rows, m.Cols, sp.Rows, sp.Cols)
		}
		if len(sp.Data) != len(m.Data) {
			return fmt.Errorf("nn: parameter %q has %d values, want %d",
				sp.Name, len(sp.Data), len(m.Data))
		}
		copy(m.Data, sp.Data)
	}
	if len(loaded) != len(p.byKey) {
		return fmt.Errorf("nn: checkpoint holds %d of %d model parameters", len(loaded), len(p.byKey))
	}
	return nil
}

// --- initializers ---

// XavierInit fills m with Glorot-uniform values for a fanIn×fanOut layer.
func XavierInit(m *tensor.Matrix, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// --- layers ---

// Linear is a dense affine layer y = x·W + b.
type Linear struct {
	W, B *tensor.Matrix
}

// NewLinear creates a Xavier-initialized in×out layer and registers its
// parameters under prefix+".w" / prefix+".b".
func NewLinear(p *Params, prefix string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{W: tensor.New(in, out), B: tensor.New(1, out)}
	XavierInit(l.W, rng)
	p.Add(prefix+".w", l.W)
	p.Add(prefix+".b", l.B)
	return l
}

// Apply runs the layer on the tape.
func (l *Linear) Apply(t *autodiff.Tape, x *autodiff.Var) *autodiff.Var {
	return t.AddRow(t.MatMul(x, t.Param(l.W)), t.Param(l.B))
}

// --- gradient bookkeeping ---

// GradSet collects the gradients produced by one backward pass, keyed by
// parameter name. Because autodiff Vars wrap the parameter matrices without
// copying, the model must register each Param Var per step; helpers below
// handle the common pattern.
type GradSet struct {
	vars map[string]*autodiff.Var
}

// NewGradSet returns an empty gradient collection.
func NewGradSet() *GradSet { return &GradSet{vars: make(map[string]*autodiff.Var)} }

// Track records the autodiff Var bound to the named parameter this step.
// A nil GradSet (inference mode) is a no-op passthrough.
func (g *GradSet) Track(name string, v *autodiff.Var) *autodiff.Var {
	if g == nil {
		return v
	}
	g.vars[name] = v
	return v
}

// ParamVar binds a parameter matrix into the tape for one step. With a nil
// GradSet (inference mode) the matrix enters the tape as a constant: no
// gradient buffer is allocated and the backward bookkeeping for every op
// touching it is skipped entirely — the eval-mode contract of the staged
// inference engine (internal/infer).
func ParamVar(t *autodiff.Tape, g *GradSet, name string, m *tensor.Matrix) *autodiff.Var {
	if g == nil {
		return t.Constant(m)
	}
	return g.Track(name, t.Param(m))
}

// Grad returns the gradient for name, or nil if the parameter did not
// participate in this step's graph.
func (g *GradSet) Grad(name string) *tensor.Matrix {
	v, ok := g.vars[name]
	if !ok || v.Grad == nil {
		return nil
	}
	return v.Grad
}

// Names returns the tracked parameter names in sorted order — the fixed
// iteration order every gradient reduction in this package uses, so that
// floating-point accumulation is reproducible run to run.
func (g *GradSet) Names() []string {
	names := make([]string, 0, len(g.vars))
	for n := range g.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClipByGlobalNorm rescales all tracked gradients so their joint L2 norm is
// at most maxNorm. It returns the pre-clip norm. The sum of squares is
// accumulated in sorted-name order: map-iteration order would make the norm
// (and therefore the clipped parameters) differ by ulps between same-seed
// runs whenever clipping engages.
func (g *GradSet) ClipByGlobalNorm(maxNorm float64) float64 {
	names := g.Names()
	var total float64
	for _, n := range names {
		if v := g.vars[n]; v.Grad != nil {
			for _, x := range v.Grad.Data {
				total += x * x
			}
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, n := range names {
			if v := g.vars[n]; v.Grad != nil {
				v.Grad.ScaleInPlace(s)
			}
		}
	}
	return norm
}

// MergeGradSets sums the gradients of parts into a fresh GradSet holding
// newly allocated matrices; the inputs are left untouched. For every
// parameter name the partial gradients are added in part-index order, so
// the merged result is a pure function of the parts slice — the
// bit-identity cornerstone of the data-parallel trainer: however many
// workers produced the parts, the merge accumulates them in the same fixed
// order. Nil parts (skipped sub-batches) are ignored.
func MergeGradSets(parts []*GradSet) *GradSet {
	out := NewGradSet()
	for _, part := range parts {
		if part == nil {
			continue
		}
		for name, v := range part.vars {
			if v.Grad == nil {
				continue
			}
			acc, ok := out.vars[name]
			if !ok {
				acc = &autodiff.Var{Grad: tensor.New(v.Grad.Rows, v.Grad.Cols)}
				out.vars[name] = acc
			}
			acc.Grad.AddInPlace(v.Grad)
		}
	}
	return out
}

// --- optimizers ---

// Optimizer applies one update step given a parameter collection and the
// step's gradients.
type Optimizer interface {
	Step(p *Params, grads *GradSet)
	// SetLR overrides the base learning rate (used by schedulers).
	SetLR(lr float64)
	LR() float64
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction,
// matching the paper's training configuration.
type Adam struct {
	lr, Beta1, Beta2, Eps float64
	WeightDecay           float64 // decoupled (AdamW-style); 0 disables
	t                     int
	m, v                  map[string][]float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[string][]float64), v: make(map[string][]float64),
	}
}

func (a *Adam) SetLR(lr float64) { a.lr = lr }
func (a *Adam) LR() float64      { return a.lr }

// Step applies one Adam update to every parameter that has a gradient.
func (a *Adam) Step(p *Params, grads *GradSet) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, name := range p.Names() {
		g := grads.Grad(name)
		if g == nil {
			continue
		}
		w := p.Get(name)
		m := a.m[name]
		v := a.v[name]
		if m == nil {
			m = make([]float64, len(w.Data))
			v = make([]float64, len(w.Data))
			a.m[name] = m
			a.v[name] = v
		}
		for i, gi := range g.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mhat := m[i] / c1
			vhat := v[i] / c2
			w.Data[i] -= a.lr * (mhat/(math.Sqrt(vhat)+a.Eps) + a.WeightDecay*w.Data[i])
		}
	}
}

// --- schedules ---

// LinearDecay returns the learning rate for the given step out of total,
// decaying linearly from base to 0 with no warm-up (paper §4.2).
func LinearDecay(base float64, step, total int) float64 {
	if total <= 0 {
		return base
	}
	f := 1 - float64(step)/float64(total)
	if f < 0 {
		f = 0
	}
	return base * f
}

// --- early stopping ---

// EarlyStopper tracks a validation metric (higher is better) and signals
// when patience epochs pass without improvement. It keeps the snapshot of
// the best parameters seen, mirroring the paper's "load the checkpoint with
// the highest validation F1" protocol.
type EarlyStopper struct {
	Patience  int
	best      float64
	bestEpoch int
	snapshot  map[string][]float64
	seen      int
	nans      int
}

// NewEarlyStopper returns a stopper with the given patience (epochs).
func NewEarlyStopper(patience int) *EarlyStopper {
	return &EarlyStopper{Patience: patience, best: math.Inf(-1), bestEpoch: -1}
}

// Observe records the metric for an epoch. It returns true when training
// should stop.
//
// A NaN metric — a poisoned validation pass — is handled explicitly: it is
// never an improvement (the implicit `NaN > best` comparison is always
// false, which used to make this an accident rather than a decision), it
// never snapshots, and it counts against patience like any non-improving
// epoch. Callers should check RestoreBest's result afterwards: a run
// whose metric was never finite has no snapshot to restore.
func (e *EarlyStopper) Observe(epoch int, metric float64, p *Params) bool {
	e.seen++
	if math.IsNaN(metric) {
		e.nans++
		return epoch-e.bestEpoch >= e.Patience
	}
	if metric > e.best {
		e.best = metric
		e.bestEpoch = epoch
		e.snapshot = p.Snapshot()
		return false
	}
	return epoch-e.bestEpoch >= e.Patience
}

// Best returns the best metric value and the epoch it occurred at
// (-Inf, -1 when no finite metric was ever observed).
func (e *EarlyStopper) Best() (float64, int) { return e.best, e.bestEpoch }

// NaNsSeen returns how many observed epochs carried a NaN metric.
func (e *EarlyStopper) NaNsSeen() int { return e.nans }

// RestoreBest loads the best snapshot back into p. It reports whether a
// snapshot existed; callers that log should warn on false — silently
// keeping the final-epoch parameters defeats the checkpoint protocol.
func (e *EarlyStopper) RestoreBest(p *Params) bool {
	if e.snapshot == nil {
		return false
	}
	p.Restore(e.snapshot)
	return true
}
