package autodiff

import (
	"math/rand"
	"testing"

	"github.com/sematype/pythagoras/internal/tensor"
)

// TestTapeReuseProducesIdenticalResults: a recycled tape must compute the
// same values and gradients as a fresh one — the arena hands back dirty
// buffers, so any op relying on zeroed storage it didn't zero would surface
// here.
func TestTapeReuseProducesIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randMat(rng, 5, 8)
	w1 := randMat(rng, 8, 6)
	w2 := randMat(rng, 6, 3)
	labels := []int{0, 2, 1, 1, 0}

	run := func(tape *Tape) (float64, *tensor.Matrix, *tensor.Matrix) {
		vx := tape.Constant(x)
		vw1, vw2 := tape.Param(w1), tape.Param(w2)
		h := tape.ReLU(tape.MatMul(vx, vw1))
		logits := tape.MatMul(h, vw2)
		loss := tape.SoftmaxCrossEntropy(logits, labels)
		tape.Backward(loss)
		// Clone: grads live in the arena and die at the next Reset.
		return loss.Value.Data[0], vw1.Grad.Clone(), vw2.Grad.Clone()
	}

	fresh := NewTape()
	wantLoss, wantG1, wantG2 := run(fresh)

	reused := NewTape()
	for i := 0; i < 3; i++ {
		reused.Reset()
		loss, g1, g2 := run(reused)
		if loss != wantLoss {
			t.Fatalf("iteration %d: loss %v, want %v (recycled tape diverged)", i, loss, wantLoss)
		}
		if !tensor.Equal(g1, wantG1, 0) || !tensor.Equal(g2, wantG2, 0) {
			t.Fatalf("iteration %d: gradients differ on recycled tape", i)
		}
	}
}

// TestTapeSteadyStateAllocFree pins the arena's purpose: once a tape has
// grown its op slice, Var slab and matrix free lists to the shape of the
// computation, running the same forward+backward again allocates nothing.
func TestTapeSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randMat(rng, 16, 32)
	w1 := randMat(rng, 32, 24)
	b1 := randMat(rng, 1, 24)
	w2 := randMat(rng, 24, 7)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 7
	}

	tape := NewTape()
	step := func() {
		tape.Reset()
		vx := tape.Constant(x)
		h := tape.ReLU(tape.AddRow(tape.MatMul(vx, tape.Param(w1)), tape.Param(b1)))
		logits := tape.MatMul(h, tape.Param(w2))
		loss := tape.SoftmaxCrossEntropy(logits, labels)
		tape.Backward(loss)
	}
	// Warm the arena: first run grows every pool to steady-state shape.
	step()
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("steady-state forward+backward: %v allocs/op, want 0", n)
	}
}

// TestEdgeMixSteadyStateAllocFree covers the fused GNN op's hot path the
// same way — gather→matmul→scatter→normalize forward plus its backward.
func TestEdgeMixSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := randMat(rng, 12, 16)
	w := randMat(rng, 16, 16)
	src := []int{0, 1, 2, 3, 4, 0, 5}
	rows := []int{0, 1, 2, 3, 4, 5} // src's distinct nodes, so src is also pos
	dst := []int{6, 6, 7, 8, 9, 9, 11}
	inv := make([]float64, 12)
	for _, d := range dst {
		inv[d]++
	}
	for i, c := range inv {
		if c > 0 {
			inv[i] = 1 / c
		}
	}
	labels := make([]int, 12)

	tape := NewTape()
	step := func() {
		tape.Reset()
		vh, vw := tape.Param(h), tape.Param(w)
		out := tape.EdgeMix(vh, vw, rows, src, dst, 12, inv)
		loss := tape.SoftmaxCrossEntropy(out, labels)
		tape.Backward(loss)
	}
	step()
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("steady-state EdgeMix forward+backward: %v allocs/op, want 0", n)
	}
}

// TestTapeArenaBoundedAcrossShapes pins the arena's bound when every step
// has new shapes, as a pooled inference tape sees with each union batch:
// one tape runs the same forward+backward at 256 distinct row counts, and
// the elements its free lists hold must stay within a small constant times
// the largest single step. A free list keyed by exact size would keep
// every step's buffers.
func TestTapeArenaBoundedAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w1 := randMat(rng, 8, 6)
	b1 := randMat(rng, 1, 6)
	w2 := randMat(rng, 6, 3)
	tape := NewTape()
	var maxStep, maxHeld int
	for _, rows := range rng.Perm(256) {
		rows++
		x := randMat(rng, rows, 8)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = i % 3
		}
		tape.Reset()
		h := tape.ReLU(tape.AddRow(tape.MatMul(tape.Constant(x), tape.Param(w1)), tape.Param(b1)))
		loss := tape.SoftmaxCrossEntropy(tape.MatMul(h, tape.Param(w2)), labels)
		tape.Backward(loss)
		step := 0
		for _, m := range tape.used {
			step += len(m.Data)
		}
		held := 0
		for _, list := range tape.free {
			for _, m := range list {
				held += cap(m.Data)
			}
		}
		maxStep, maxHeld = max(maxStep, step), max(maxHeld, held)
	}
	if maxHeld > 4*maxStep {
		t.Errorf("free lists held %d elements, largest step used %d: the arena grows with the number of shapes", maxHeld, maxStep)
	}
	t.Logf("largest step %d elements, free lists held at most %d", maxStep, maxHeld)
}
