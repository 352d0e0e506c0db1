// Package nn builds neural-network training machinery on top of the
// autodiff tape: named parameter collections, initialization, dense layers,
// the Adam optimizer, learning-rate schedules, gradient clipping,
// standardization fits, early stopping, and gob-based persistence.
package nn

import (
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/par"
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

// --- the optimizer step ---

// stepRange is how many values of one parameter a worker of Adam.Step
// claims at a time: large enough that claiming a range costs nothing next
// to the work in it, small enough that the largest parameters still split
// across workers (perfbench's 104,624-value model is 31 ranges).
const stepRange = 4096

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction,
// matching the paper's training configuration. Its Step is the whole tail
// of a training step — gradient merge, global-norm clip and update — over
// storage Adam allocates once per parameter and keeps.
type Adam struct {
	lr    float64
	t     int
	state map[string]*adamState
	// active and ranges are Step's plan, reused from step to step.
	active []*adamState
	ranges []adamRange
}

// adamState is what Adam keeps for one parameter: the two moment
// estimates and the accumulator Step merges the parts' gradients into,
// all allocated on the parameter's first gradient. w and srcs are the
// current step's weights and part gradients (in part order).
type adamState struct {
	m, v, acc []float64
	w         []float64
	srcs      [][]float64
}

// adamRange is one unit of Step's parallel work: values [lo, hi) of one
// parameter.
type adamRange struct {
	st     *adamState
	lo, hi int
}

// Adam's moment decay rates and denominator guard, the standard settings.
// They are typed: an untyped 1-adamBeta1 would fold exactly to 0.1 rather
// than round 1 minus float64(0.9), and move every update's bits.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// NewAdam returns an Adam optimizer with the standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, state: make(map[string]*adamState)}
}

// SetLR overrides the base learning rate (used by schedules).
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Step applies one optimizer step to p from parts, the gradients of one
// minibatch's sub-batches (nil for a skipped one), on up to workers
// goroutines, and returns the global norm before clipping:
//
//  1. merge: each parameter's gradient is the sum of the parts that hold
//     one, added in part order to +0 in Adam's accumulator;
//  2. clip: the squares of the merged values, summed serially over the
//     parameters in sorted-name order, give the global L2 norm; above
//     maxNorm every merged value is scaled by maxNorm/norm (+Inf never
//     clips);
//  3. update: every parameter that has a gradient takes one Adam update. A
//     parameter no part holds a gradient for keeps its weights and moments.
//
// Merge and update run over fixed ranges of stepRange values through
// par.For. Each value's result depends only on its own gradients in the
// parts and on the norm, so the step is bit-identical at any worker count,
// and to summing the parts into fresh storage, clipping and updating
// serially (the oracle in step_test.go). The parts are only read.
func (a *Adam) Step(p *Params, parts []*GradSet, maxNorm float64, workers int) float64 {
	names := p.Names()
	sort.Strings(names)
	a.active, a.ranges = a.active[:0], a.ranges[:0]
	for _, name := range names {
		w := p.byKey[name].Data
		st := a.state[name]
		var srcs [][]float64
		if st != nil {
			srcs = st.srcs[:0]
		}
		for _, part := range parts {
			if part == nil {
				continue
			}
			if g := part.Grad(name); g != nil {
				if len(g.Data) != len(w) {
					panic(fmt.Sprintf("nn: gradient of %q has %d values, parameter %d", name, len(g.Data), len(w)))
				}
				srcs = append(srcs, g.Data)
			}
		}
		if len(srcs) == 0 {
			continue
		}
		// Created here, before any worker starts: the map has one writer.
		if st == nil {
			st = &adamState{m: make([]float64, len(w)), v: make([]float64, len(w)), acc: make([]float64, len(w))}
			a.state[name] = st
		}
		st.w, st.srcs = w, srcs
		a.active = append(a.active, st)
		for lo := 0; lo < len(w); lo += stepRange {
			a.ranges = append(a.ranges, adamRange{st: st, lo: lo, hi: min(lo+stepRange, len(w))})
		}
	}

	// Not the caller's context: a step cancelled part-way would leave some
	// weights and moments a step ahead of the others, so the caller checks
	// for cancellation before Step instead.
	ctx := context.Background()
	_ = par.For(ctx, workers, len(a.ranges), func(i int) error {
		a.ranges[i].merge()
		return nil
	})

	var total float64
	for _, st := range a.active {
		for _, x := range st.acc {
			total += x * x
		}
	}
	norm := math.Sqrt(total)
	clip := norm > maxNorm && norm > 0
	var scale float64
	if clip {
		scale = maxNorm / norm
	}

	a.t++
	c1 := 1 - math.Pow(adamBeta1, float64(a.t))
	c2 := 1 - math.Pow(adamBeta2, float64(a.t))
	_ = par.For(ctx, workers, len(a.ranges), func(i int) error {
		a.update(a.ranges[i], clip, scale, c1, c2)
		return nil
	})
	for _, st := range a.active {
		clear(st.srcs) // drop the references into the parts' tapes
	}
	return norm
}

// merge sums the range's part gradients into its accumulator in part
// order, starting from +0 (so a -0 gradient merges to +0, as adding it to
// zeroed storage does).
func (r adamRange) merge() {
	acc := r.st.acc[r.lo:r.hi]
	clear(acc)
	srcs := r.st.srcs
	// Four parts per pass, added left to right, so the accumulator is read
	// and written once per four parts and the sum keeps the part order.
	for ; len(srcs) >= 4; srcs = srcs[4:] {
		a, b, c, d := srcs[0][r.lo:r.hi], srcs[1][r.lo:r.hi], srcs[2][r.lo:r.hi], srcs[3][r.lo:r.hi]
		for i := range acc {
			acc[i] = acc[i] + a[i] + b[i] + c[i] + d[i]
		}
	}
	for _, src := range srcs {
		src = src[r.lo:r.hi]
		for i := range acc {
			acc[i] += src[i]
		}
	}
}

// update is Adam's per-value rule, applied to one range: each merged
// gradient is multiplied by scale first when clip is set, and c1, c2 are
// this step's bias corrections.
func (a *Adam) update(r adamRange, clip bool, scale, c1, c2 float64) {
	lr := a.lr
	w, m, v, g := r.st.w[r.lo:r.hi], r.st.m[r.lo:r.hi], r.st.v[r.lo:r.hi], r.st.acc[r.lo:r.hi]
	for i, gi := range g {
		if clip {
			gi *= scale
		}
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		w[i] -= lr * (mhat / (math.Sqrt(vhat) + adamEps))
	}
}

// --- standardization ---

// FitStandardization fits a per-column standardization (x−mean)/std: it
// returns the mean and the population standard deviation of the dim-wide
// rows that each passes to visit. It runs each twice, for the means and
// then for the deviations, and sums the rows in the order each visits them,
// which must be the same both times. A deviation under 1e-6 becomes 1, so a
// constant column is centred but not scaled. With no rows it returns nil,
// nil: there is nothing to standardize by.
func FitStandardization(dim int, each func(visit func(row []float64))) (mean, std []float64) {
	mean = make([]float64, dim)
	n := 0
	each(func(row []float64) {
		for j, v := range row {
			mean[j] += v
		}
		n++
	})
	if n == 0 {
		return nil, nil
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	std = make([]float64, dim)
	each(func(row []float64) {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	})
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] < 1e-6 {
			std[j] = 1
		}
	}
	return mean, std
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
