// Package autodiff implements tape-based reverse-mode automatic
// differentiation over tensor.Matrix values.
//
// A Tape records every primitive operation applied to Var values; calling
// Backward on a scalar loss Var replays the tape in reverse, accumulating
// gradients into every Var created with Param (trainable parameters) or
// reached through recorded ops. The op set is exactly what Pythagoras and
// its baselines train with: dense affine layers, ReLU, dropout, row
// gather/scatter (the message-passing primitives of the heterogeneous GNN,
// plus the fused EdgeMix form), column concatenation, and a fused
// softmax-cross-entropy loss. Inference probabilities need no gradient, so
// they are a plain row softmax over the forward's logits, outside the tape
// (core.Model.InferProbs).
//
// Steady-state a tape allocates nothing: ops are opcode records in a
// reusable slice (no closures), Vars come from a block slab, and every
// intermediate value, gradient, and scratch matrix comes from a per-tape
// arena that Reset recycles. The first step through a fresh tape pays the
// allocations; every following step of the same shapes reuses them. A Tape
// is not safe for concurrent use; build one per goroutine and Reset it
// between steps.
//
// Typical usage:
//
//	tape := autodiff.NewTape()
//	x := tape.Constant(input)
//	w := tape.Param(weights)       // gradient will be accumulated
//	h := tape.ReLU(tape.MatMul(x, w))
//	loss := tape.SoftmaxCrossEntropy(h, labels)
//	tape.Backward(loss)
//	// w.Grad now holds ∂loss/∂w — read it before the next Reset,
//	// or copy it out: the buffer returns to the arena.
package autodiff

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/sematype/pythagoras/internal/tensor"
)

// Var is a node in the computation graph: a value plus (after Backward) its
// gradient with respect to the loss.
//
// Vars returned by tape methods live in the tape's slab and their matrices
// in its arena: both are recycled by Reset, so neither the Var nor its
// Value/Grad may be retained across a Reset — Clone what must outlive the
// step. Matrices passed into Constant and Param stay caller-owned and are
// never recycled.
type Var struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix // nil until Backward reaches this Var
	tape  *Tape
	id    int
	// needsGrad marks Vars that are parameters or depend on parameters;
	// backward skips subtrees that cannot influence any parameter.
	needsGrad bool
}

// opKind enumerates the primitive operations a tape can record. Backward
// dispatches on the kind with a switch — an indirect call through a closure
// would cost an allocation per record and defeat the arena.
type opKind uint8

const (
	opMatMul opKind = iota
	opAdd
	opAddRow
	opScale
	opReLU
	opDropout
	opGatherRows
	opScatterAddRows
	opConcatCols
	opSoftmaxXEnt
	opEdgeMix
)

// opRecord is one recorded primitive. Fields are a union over the op set;
// each kind documents its own usage in the Backward switch. The struct
// holds only references — indices and weight slices stay caller-owned.
type opRecord struct {
	kind opKind
	out  *Var
	a, b *Var
	s    float64        // Scale factor, SoftmaxXEnt unmasked row count
	idx  []int          // gather/scatter indices, EdgeMix pos, SoftmaxXEnt labels
	idx2 []int          // EdgeMix dst
	idx3 []int          // EdgeMix source rows
	sc   []float64      // EdgeMix inv-degree
	aux  *tensor.Matrix // Dropout mask, SoftmaxXEnt probs, EdgeMix h[rows]
	vars []*Var         // ConcatCols inputs
}

// Tape records operations for reverse-mode differentiation. A Tape is not
// safe for concurrent use; build one per goroutine/training step.
type Tape struct {
	ops    []opRecord
	nextID int

	// arena: value/grad/scratch matrices handed out by alloc. free[c] lists
	// buffers of size class c = bits.Len(n), capacity 2^c−1, so any one fits
	// any request of its class: a reused tape whose every step has new
	// shapes (each union batch does) keeps, per class, only the buffers one
	// step had live at once. used tracks every live arena matrix; Reset
	// moves them back to free. Caller-owned matrices (Constant/Param) never
	// enter.
	free [bits.UintSize + 1][]*tensor.Matrix
	used []*tensor.Matrix

	// Var slab: fixed-capacity blocks so Var pointers stay stable while the
	// slab grows. Reset truncates each block for reuse.
	blocks [][]Var
	cur    int
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset discards all recorded operations and recycles every arena matrix
// and slab Var so the tape can be reused without re-allocating. All Vars
// and arena-backed matrices from the previous step become invalid.
func (t *Tape) Reset() {
	t.ops = t.ops[:0]
	t.nextID = 0
	for i, m := range t.used {
		c := bits.Len(uint(cap(m.Data)))
		t.free[c] = append(t.free[c], m)
		t.used[i] = nil
	}
	t.used = t.used[:0]
	for i := range t.blocks {
		t.blocks[i] = t.blocks[i][:0]
	}
	t.cur = 0
}

// alloc hands out a rows×cols matrix from the arena, recycling a free
// buffer of the same size class. Contents are UNDEFINED — every element
// must be written (the Into kernels and full-overwrite loops do). Use
// allocZero when the op accumulates.
func (t *Tape) alloc(rows, cols int) *tensor.Matrix {
	n := rows * cols
	c := bits.Len(uint(n))
	if list := t.free[c]; len(list) > 0 {
		m := list[len(list)-1]
		list[len(list)-1] = nil
		t.free[c] = list[:len(list)-1]
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
		t.used = append(t.used, m)
		return m
	}
	m := &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<c-1)}
	t.used = append(t.used, m)
	return m
}

// allocZero is alloc with the buffer zeroed.
func (t *Tape) allocZero(rows, cols int) *tensor.Matrix {
	m := t.alloc(rows, cols)
	m.Zero()
	return m
}

// varBlockSize is the Var slab block capacity. Blocks never grow in place,
// so &block[i] stays valid as the slab extends.
const varBlockSize = 256

func (t *Tape) newVar(val *tensor.Matrix, needsGrad bool) *Var {
	for {
		if t.cur == len(t.blocks) {
			t.blocks = append(t.blocks, make([]Var, 0, varBlockSize))
		}
		blk := t.blocks[t.cur]
		if len(blk) < cap(blk) {
			blk = append(blk, Var{Value: val, tape: t, id: t.nextID, needsGrad: needsGrad})
			t.blocks[t.cur] = blk
			t.nextID++
			return &blk[len(blk)-1]
		}
		t.cur++
	}
}

// Constant wraps a matrix that requires no gradient (inputs, labels,
// precomputed frozen-LM embeddings).
func (t *Tape) Constant(m *tensor.Matrix) *Var { return t.newVar(m, false) }

// Param wraps a trainable parameter matrix; Backward accumulates into its
// Grad field. The matrix is NOT copied: the caller owns the storage (this is
// what lets an optimizer update parameters in place between steps).
func (t *Tape) Param(m *tensor.Matrix) *Var {
	return t.newVar(m, true)
}

func (t *Tape) record(r opRecord) {
	t.ops = append(t.ops, r)
}

// grad returns v.Grad, allocating a zeroed arena buffer on first touch.
func (t *Tape) grad(v *Var) *tensor.Matrix {
	if v.Grad == nil {
		v.Grad = t.allocZero(v.Value.Rows, v.Value.Cols)
	}
	return v.Grad
}

// Backward runs reverse-mode accumulation from loss, which must be a 1×1
// Var produced by this tape. Gradients accumulate (+=) into every
// needsGrad Var; call ZeroGrad / optimizer-side zeroing between steps.
func (t *Tape) Backward(loss *Var) {
	if loss.tape != t {
		panic("autodiff: Backward on foreign tape")
	}
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward needs scalar loss, got %v", loss.Value))
	}
	t.grad(loss).Data[0] = 1
	for i := len(t.ops) - 1; i >= 0; i-- {
		r := &t.ops[i]
		if r.out.Grad == nil || !r.out.needsGrad {
			continue
		}
		t.backwardOp(r)
	}
}

// backwardOp applies one record's vector-Jacobian product. Accumulation
// targets come from t.grad (arena-zeroed on first touch); products fuse the
// accumulate via the AddInto kernels so no temporaries are allocated.
func (t *Tape) backwardOp(r *opRecord) {
	g := r.out.Grad
	switch r.kind {
	case opMatMul:
		if r.a.needsGrad {
			tensor.MatMulTransposeBAddInto(t.grad(r.a), g, r.b.Value)
		}
		if r.b.needsGrad {
			tensor.MatMulTransposeAAddInto(t.grad(r.b), r.a.Value, g)
		}

	case opAdd:
		if r.a.needsGrad {
			t.grad(r.a).AddInPlace(g)
		}
		if r.b.needsGrad {
			t.grad(r.b).AddInPlace(g)
		}

	case opAddRow:
		if r.a.needsGrad {
			t.grad(r.a).AddInPlace(g)
		}
		if r.b.needsGrad {
			gb := t.grad(r.b)
			for i := 0; i < g.Rows; i++ {
				row := g.Row(i)
				for j, v := range row {
					gb.Data[j] += v
				}
			}
		}

	case opScale:
		t.grad(r.a).AddScaledInPlace(g, r.s)

	case opReLU:
		ga := t.grad(r.a)
		for i, v := range r.a.Value.Data {
			if v > 0 {
				ga.Data[i] += g.Data[i]
			}
		}

	case opDropout:
		ga := t.grad(r.a)
		for i, m := range r.aux.Data {
			ga.Data[i] += g.Data[i] * m
		}

	case opGatherRows:
		tensor.ScatterAddRows(t.grad(r.a), g, r.idx)

	case opScatterAddRows:
		ga := t.grad(r.a)
		for i, src := range r.idx {
			drow := ga.Row(i)
			srow := g.Row(src)
			for j, v := range srow {
				drow[j] += v
			}
		}

	case opConcatCols:
		at := 0
		for _, v := range r.vars {
			w := v.Value.Cols
			if v.needsGrad {
				gv := t.grad(v)
				for i := 0; i < v.Value.Rows; i++ {
					src := g.Row(i)[at : at+w]
					dst := gv.Row(i)
					for j, gg := range src {
						dst[j] += gg
					}
				}
			}
			at += w
		}

	case opSoftmaxXEnt:
		gs := g.Data[0]
		gl := t.grad(r.a)
		probs, labels, rows := r.aux, r.idx, r.s
		scale := gs / rows
		for i, lab := range labels {
			if lab < 0 {
				continue
			}
			prow := probs.Row(i)
			grow := gl.Row(i)
			for j, p := range prow {
				grow[j] += scale * p
			}
			grow[lab] -= scale
		}

	case opEdgeMix:
		// out = scaleRows(scatterAdd((hs×w)[pos] → dst), inv) with
		// hs = h[rows]. Push the inv-scaled output gradient back through
		// the scatter into ghw, one row per source node, in edge order
		// (per-node grouping — a deliberate re-association of the old
		// per-edge op chain, see DESIGN.md §12), then one fused product
		// per input: ∂h[rows] += ghw·wᵀ, ∂w += hsᵀ·ghw. The ∂h product
		// accumulates into ∂h's own source rows, gathered and copied back,
		// so each sum still starts from the gradient other ops left there.
		h, w, hs, rows := r.a, r.b, r.aux, r.idx3
		ghw := t.allocZero(hs.Rows, w.Value.Cols)
		if r.sc != nil {
			for e, p := range r.idx {
				dst := r.idx2[e]
				sv := r.sc[dst]
				grow := g.Row(dst)
				hrow := ghw.Row(p)
				for j, gv := range grow {
					hrow[j] += sv * gv
				}
			}
		} else {
			for e, p := range r.idx {
				grow := g.Row(r.idx2[e])
				hrow := ghw.Row(p)
				for j, gv := range grow {
					hrow[j] += gv
				}
			}
		}
		if h.needsGrad {
			gh := t.grad(h)
			ghs := t.alloc(hs.Rows, hs.Cols)
			tensor.GatherRowsInto(ghs, gh, rows)
			tensor.MatMulTransposeBAddInto(ghs, ghw, w.Value)
			for p, i := range rows {
				copy(gh.Row(i), ghs.Row(p))
			}
		}
		if w.needsGrad {
			tensor.MatMulTransposeAAddInto(t.grad(w), hs, ghw)
		}

	default:
		panic(fmt.Sprintf("autodiff: unknown op kind %d", r.kind))
	}
}

// --- primitive operations ---

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Var) *Var {
	outVal := t.alloc(a.Value.Rows, b.Value.Cols)
	tensor.MatMulInto(outVal, a.Value, b.Value)
	out := t.newVar(outVal, a.needsGrad || b.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opMatMul, out: out, a: a, b: b})
	}
	return out
}

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Var) *Var {
	outVal := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddInto(outVal, a.Value, b.Value)
	out := t.newVar(outVal, a.needsGrad || b.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opAdd, out: out, a: a, b: b})
	}
	return out
}

// AddRow broadcasts the 1×C row vector bias over every row of a.
func (t *Tape) AddRow(a, bias *Var) *Var {
	outVal := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddRowBroadcastInto(outVal, a.Value, bias.Value)
	out := t.newVar(outVal, a.needsGrad || bias.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opAddRow, out: out, a: a, b: bias})
	}
	return out
}

// Scale returns s·a for scalar constant s.
func (t *Tape) Scale(a *Var, s float64) *Var {
	outVal := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.ScaleInto(outVal, a.Value, s)
	out := t.newVar(outVal, a.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opScale, out: out, a: a, s: s})
	}
	return out
}

// ReLU applies max(0, x) elementwise.
func (t *Tape) ReLU(a *Var) *Var {
	outVal := t.alloc(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		if v > 0 {
			outVal.Data[i] = v
		} else {
			outVal.Data[i] = 0
		}
	}
	out := t.newVar(outVal, a.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opReLU, out: out, a: a})
	}
	return out
}

// Dropout zeroes each element with probability p and scales survivors by
// 1/(1-p) (inverted dropout). When training is false it is the identity.
func (t *Tape) Dropout(a *Var, p float64, rng *rand.Rand, training bool) *Var {
	if !training || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autodiff: dropout probability must be < 1")
	}
	mask := t.alloc(a.Value.Rows, a.Value.Cols)
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	keep := 1 / (1 - p)
	for i, v := range a.Value.Data {
		if rng.Float64() < p {
			mask.Data[i] = 0
			val.Data[i] = 0
		} else {
			mask.Data[i] = keep
			val.Data[i] = v * keep
		}
	}
	out := t.newVar(val, a.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opDropout, out: out, a: a, aux: mask})
	}
	return out
}

// GatherRows selects rows of a by index: out.Row(i) = a.Row(idx[i]). idx is
// retained by reference until the next Reset; callers must not mutate it.
func (t *Tape) GatherRows(a *Var, idx []int) *Var {
	outVal := t.alloc(len(idx), a.Value.Cols)
	tensor.GatherRowsInto(outVal, a.Value, idx)
	out := t.newVar(outVal, a.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opGatherRows, out: out, a: a, idx: idx})
	}
	return out
}

// ScatterAddRows produces an outRows×Cols matrix where row idx[i] receives
// the sum of all a rows mapped to it. This is the message-aggregation
// primitive of the GNN.
func (t *Tape) ScatterAddRows(a *Var, idx []int, outRows int) *Var {
	val := t.allocZero(outRows, a.Value.Cols)
	tensor.ScatterAddRows(val, a.Value, idx)
	out := t.newVar(val, a.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opScatterAddRows, out: out, a: a, idx: idx})
	}
	return out
}

// EdgeMix is the fused message-passing primitive of the heterogeneous GNN:
// for one edge type it computes scaleRows(scatterAdd((h×w)[src[e]] into
// dst[e]), inv) in a single pass. The sources arrive as rows, the edge
// type's distinct source nodes in ascending order, and pos, with
// rows[pos[e]] = src[e] (graph.SourceRows). The h×w product runs over rows
// only — gather commutes with the right-multiplication, so no node is
// multiplied twice and a node that sends no message is not multiplied at
// all — and no message or aggregate temporaries are materialized. outRows
// is the node count of the output; inv may be nil for no normalization.
// rows, pos, dst and inv are retained by reference until Reset. Forward
// values are bit-identical to gathering h's src rows, multiplying by w,
// scatter-adding into dst and scaling rows by inv as separate ops; gradient
// accumulation is re-associated per node, and ∂h and ∂w equal those of the
// product over every node bit for bit (see DESIGN.md §12).
func (t *Tape) EdgeMix(h, w *Var, rows, pos, dst []int, outRows int, inv []float64) *Var {
	if len(pos) != len(dst) {
		panic(fmt.Sprintf("autodiff: EdgeMix %d pos vs %d dst", len(pos), len(dst)))
	}
	if inv != nil && len(inv) != outRows {
		panic(fmt.Sprintf("autodiff: EdgeMix %d inv-degrees for %d rows", len(inv), outRows))
	}
	hs := t.alloc(len(rows), h.Value.Cols)
	tensor.GatherRowsInto(hs, h.Value, rows)
	hw := t.alloc(len(rows), w.Value.Cols)
	tensor.MatMulInto(hw, hs, w.Value)
	val := t.allocZero(outRows, w.Value.Cols)
	for e, p := range pos {
		drow := val.Row(dst[e])
		srow := hw.Row(p)
		for j, v := range srow {
			drow[j] += v
		}
	}
	if inv != nil {
		tensor.ScaleRowsInto(val, val, inv)
	}
	out := t.newVar(val, h.needsGrad || w.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opEdgeMix, out: out, a: h, b: w, idx: pos, idx2: dst, idx3: rows, sc: inv, aux: hs})
	}
	return out
}

// ConcatCols concatenates variables horizontally (shared row count). The
// vars slice is retained by reference until Reset.
func (t *Tape) ConcatCols(vars ...*Var) *Var {
	if len(vars) == 0 {
		return t.newVar(t.alloc(0, 0), false)
	}
	rows, cols, needs := vars[0].Value.Rows, 0, false
	for _, v := range vars {
		if v.Value.Rows != rows {
			panic(fmt.Sprintf("autodiff: ConcatCols row mismatch %d vs %d", v.Value.Rows, rows))
		}
		cols += v.Value.Cols
		needs = needs || v.needsGrad
	}
	outVal := t.alloc(rows, cols)
	for i := 0; i < rows; i++ {
		at := 0
		orow := outVal.Row(i)
		for _, v := range vars {
			w := v.Value.Cols
			copy(orow[at:at+w], v.Value.Row(i))
			at += w
		}
	}
	out := t.newVar(outVal, needs)
	if out.needsGrad {
		t.record(opRecord{kind: opConcatCols, out: out, vars: vars})
	}
	return out
}

// SoftmaxCrossEntropy computes mean cross-entropy between row-wise softmax
// of logits and integer labels. Rows with label < 0 are ignored (masked).
// labels is retained by reference until Reset.
// Returns a 1×1 loss Var.
func (t *Tape) SoftmaxCrossEntropy(logits *Var, labels []int) *Var {
	n, c := logits.Value.Rows, logits.Value.Cols
	if len(labels) != n {
		panic(fmt.Sprintf("autodiff: %d labels for %d rows", len(labels), n))
	}
	probs := t.allocZero(n, c)
	var loss, rows float64
	for i := 0; i < n; i++ {
		if labels[i] < 0 {
			continue
		}
		row := logits.Value.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z float64
		prow := probs.Row(i)
		for j, v := range row {
			e := math.Exp(v - mx)
			prow[j] = e
			z += e
		}
		for j := range prow {
			prow[j] /= z
		}
		loss -= math.Log(math.Max(prow[labels[i]], 1e-12))
		rows++
	}
	if rows == 0 {
		rows = 1
	}
	loss /= rows
	outVal := t.alloc(1, 1)
	outVal.Data[0] = loss
	out := t.newVar(outVal, logits.needsGrad)
	if out.needsGrad {
		t.record(opRecord{kind: opSoftmaxXEnt, out: out, a: logits, idx: labels, aux: probs, s: rows})
	}
	return out
}
