package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sematype/pythagoras/internal/tensor"
)

// numericalGrad estimates ∂f/∂p elementwise by central differences, where f
// rebuilds the computation from scratch each call.
func numericalGrad(p *tensor.Matrix, f func() float64) *tensor.Matrix {
	const h = 1e-6
	g := tensor.New(p.Rows, p.Cols)
	for i := range p.Data {
		orig := p.Data[i]
		p.Data[i] = orig + h
		fp := f()
		p.Data[i] = orig - h
		fm := f()
		p.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func checkGrad(t *testing.T, name string, p *tensor.Matrix, analytic *tensor.Matrix, f func() float64) {
	t.Helper()
	num := numericalGrad(p, f)
	for i := range num.Data {
		diff := math.Abs(num.Data[i] - analytic.Data[i])
		scale := math.Max(1, math.Max(math.Abs(num.Data[i]), math.Abs(analytic.Data[i])))
		if diff/scale > 1e-4 {
			t.Fatalf("%s: grad[%d] analytic=%g numerical=%g", name, i, analytic.Data[i], num.Data[i])
		}
	}
}

func TestMatMulGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 3, 4)
	b := randMat(rng, 4, 2)
	labels := []int{0, 1, 1}

	run := func() (*Var, *Var, *Var) {
		tape := NewTape()
		va, vb := tape.Param(a), tape.Param(b)
		out := tape.MatMul(va, vb)
		loss := tape.SoftmaxCrossEntropy(out, labels)
		tape.Backward(loss)
		return va, vb, loss
	}
	va, vb, _ := run()
	lossOf := func() float64 {
		tape := NewTape()
		out := tape.MatMul(tape.Constant(a), tape.Constant(b))
		return tape.SoftmaxCrossEntropy(out, labels).Value.Data[0]
	}
	checkGrad(t, "matmul/a", a, va.Grad, lossOf)
	checkGrad(t, "matmul/b", b, vb.Grad, lossOf)
}

func TestAddRowGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randMat(rng, 4, 3)
	bias := randMat(rng, 1, 3)
	labels := []int{0, 2, 1, 0}

	tape := NewTape()
	vb := tape.Param(bias)
	out := tape.AddRow(tape.Constant(x), vb)
	loss := tape.SoftmaxCrossEntropy(out, labels)
	tape.Backward(loss)

	lossOf := func() float64 {
		tp := NewTape()
		o := tp.AddRow(tp.Constant(x), tp.Constant(bias))
		return tp.SoftmaxCrossEntropy(o, labels).Value.Data[0]
	}
	checkGrad(t, "addrow/bias", bias, vb.Grad, lossOf)
}

func TestReLUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMat(rng, 5, 3)
	labels := []int{0, 1, 2, 0, 1}
	tape := NewTape()
	vx := tape.Param(x)
	loss := tape.SoftmaxCrossEntropy(tape.ReLU(vx), labels)
	tape.Backward(loss)
	lossOf := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(tp.ReLU(tp.Constant(x)), labels).Value.Data[0]
	}
	checkGrad(t, "relu/x", x, vx.Grad, lossOf)
}

func TestGatherScatterGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(rng, 4, 3)
	idx := []int{2, 0, 2, 1, 3}
	labels := []int{0, 1, 2, 0, 1}
	tape := NewTape()
	vx := tape.Param(x)
	loss := tape.SoftmaxCrossEntropy(tape.GatherRows(vx, idx), labels)
	tape.Backward(loss)
	lossOf := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(tp.GatherRows(tp.Constant(x), idx), labels).Value.Data[0]
	}
	checkGrad(t, "gather/x", x, vx.Grad, lossOf)

	// scatter: 5 source rows into 3 dest rows
	src := randMat(rng, 5, 3)
	sidx := []int{0, 2, 1, 0, 2}
	slabels := []int{1, 0, 2}
	tape2 := NewTape()
	vs := tape2.Param(src)
	loss2 := tape2.SoftmaxCrossEntropy(tape2.ScatterAddRows(vs, sidx, 3), slabels)
	tape2.Backward(loss2)
	lossOf2 := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(tp.ScatterAddRows(tp.Constant(src), sidx, 3), slabels).Value.Data[0]
	}
	checkGrad(t, "scatter/src", src, vs.Grad, lossOf2)
}

func TestConcatColsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 2, 2)
	b := randMat(rng, 2, 3)
	labels := []int{0, 4}
	tape := NewTape()
	va, vb := tape.Param(a), tape.Param(b)
	loss := tape.SoftmaxCrossEntropy(tape.ConcatCols(va, vb), labels)
	tape.Backward(loss)
	lossOf := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(tp.ConcatCols(tp.Constant(a), tp.Constant(b)), labels).Value.Data[0]
	}
	checkGrad(t, "concatcols/a", a, va.Grad, lossOf)
	checkGrad(t, "concatcols/b", b, vb.Grad, lossOf)
}

func TestSoftmaxCrossEntropyMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randMat(rng, 4, 3)
	labels := []int{0, -1, 2, 1} // row 1 masked
	tape := NewTape()
	vx := tape.Param(x)
	loss := tape.SoftmaxCrossEntropy(vx, labels)
	tape.Backward(loss)
	lossOf := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(tp.Constant(x), labels).Value.Data[0]
	}
	checkGrad(t, "xent/masked", x, vx.Grad, lossOf)
	// masked row must get zero gradient
	for j := 0; j < 3; j++ {
		if vx.Grad.At(1, j) != 0 {
			t.Fatal("masked row received gradient")
		}
	}
}

func TestSoftmaxCrossEntropyValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	tape := NewTape()
	x := tensor.New(2, 4)
	loss := tape.SoftmaxCrossEntropy(tape.Constant(x), []int{0, 3})
	if math.Abs(loss.Value.Data[0]-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform-logit loss = %v want ln4", loss.Value.Data[0])
	}
}

func TestScaleGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 2, 3)
	labels := []int{0, 2}
	tape := NewTape()
	va := tape.Param(a)
	loss := tape.SoftmaxCrossEntropy(tape.Scale(va, 1.7), labels)
	tape.Backward(loss)
	lossOf := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(tp.Scale(tp.Constant(a), 1.7), labels).Value.Data[0]
	}
	checkGrad(t, "scale/a", a, va.Grad, lossOf)
}

func TestDropoutTrainingFalseIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := randMat(rng, 3, 3)
	tape := NewTape()
	v := tape.Constant(x)
	if got := tape.Dropout(v, 0.5, rand.New(rand.NewSource(0)), false); got != v {
		t.Fatal("dropout(eval) must be identity")
	}
}

func TestDropoutPreservesExpectation(t *testing.T) {
	x := tensor.New(1, 10000)
	for i := range x.Data {
		x.Data[i] = 1
	}
	tape := NewTape()
	out := tape.Dropout(tape.Constant(x), 0.3, rand.New(rand.NewSource(42)), true)
	var s float64
	for _, v := range out.Value.Data {
		s += v
	}
	mean := s / float64(len(out.Value.Data))
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("inverted dropout mean = %v, want ≈1", mean)
	}
}

func TestDropoutGradientMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randMat(rng, 3, 4)
	labels := []int{0, 1, 2}
	tape := NewTape()
	vx := tape.Param(x)
	out := tape.Dropout(vx, 0.4, rand.New(rand.NewSource(7)), true)
	loss := tape.SoftmaxCrossEntropy(out, labels)
	tape.Backward(loss)
	// Gradient must be zero exactly where output was zeroed (unless the
	// input itself was nonzero but masked).
	for i := range out.Value.Data {
		if out.Value.Data[i] == 0 && x.Data[i] != 0 && vx.Grad.Data[i] != 0 {
			t.Fatal("gradient leaked through dropped element")
		}
	}
}

func TestBackwardAccumulatesAcrossUses(t *testing.T) {
	// y = x + x → dy/dx = 2
	x := tensor.FromSlice(1, 1, []float64{3})
	tape := NewTape()
	vx := tape.Param(x)
	y := tape.Add(vx, vx)
	loss := tape.Scale(y, 1) // still scalar 1x1
	tape.Backward(loss)
	if vx.Grad.Data[0] != 2 {
		t.Fatalf("shared-use grad = %v, want 2", vx.Grad.Data[0])
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tape := NewTape()
	v := tape.Param(tensor.New(2, 2))
	tape.Backward(v)
}

func TestTapeReset(t *testing.T) {
	tape := NewTape()
	x := tape.Param(tensor.FromSlice(1, 1, []float64{2}))
	loss := tape.Scale(x, 3)
	tape.Backward(loss)
	if x.Grad.Data[0] != 3 {
		t.Fatalf("grad = %v", x.Grad.Data[0])
	}
	tape.Reset()
	if len(tape.ops) != 0 {
		t.Fatal("Reset must clear ops")
	}
}

func TestConstantSubtreeSkipped(t *testing.T) {
	// A pure-constant subtree must not allocate gradients.
	tape := NewTape()
	a := tape.Constant(tensor.FromSlice(1, 2, []float64{1, 2}))
	b := tape.Constant(tensor.FromSlice(1, 2, []float64{3, 4}))
	c := tape.Add(a, b)
	p := tape.Param(tensor.FromSlice(1, 2, []float64{0, 0}))
	out := tape.Add(c, p)
	loss := tape.SoftmaxCrossEntropy(out, []int{1})
	tape.Backward(loss)
	if a.Grad != nil || b.Grad != nil || c.Grad != nil {
		t.Fatal("constant subtree received gradients")
	}
	if p.Grad == nil {
		t.Fatal("param missed gradient")
	}
}

func TestTwoLayerMLPGradient(t *testing.T) {
	// End-to-end composite check: x·W1+b1 → ReLU → ·W2+b2 → CE.
	rng := rand.New(rand.NewSource(20))
	x := randMat(rng, 6, 5)
	w1, b1 := randMat(rng, 5, 4), randMat(rng, 1, 4)
	w2, b2 := randMat(rng, 4, 3), randMat(rng, 1, 3)
	labels := []int{0, 1, 2, 0, 1, 2}

	forward := func(tp *Tape, pw1, pb1, pw2, pb2 *Var) *Var {
		h := tp.ReLU(tp.AddRow(tp.MatMul(tp.Constant(x), pw1), pb1))
		return tp.AddRow(tp.MatMul(h, pw2), pb2)
	}
	tape := NewTape()
	vw1, vb1, vw2, vb2 := tape.Param(w1), tape.Param(b1), tape.Param(w2), tape.Param(b2)
	loss := tape.SoftmaxCrossEntropy(forward(tape, vw1, vb1, vw2, vb2), labels)
	tape.Backward(loss)
	lossOf := func() float64 {
		tp := NewTape()
		return tp.SoftmaxCrossEntropy(
			forward(tp, tp.Constant(w1), tp.Constant(b1), tp.Constant(w2), tp.Constant(b2)),
			labels).Value.Data[0]
	}
	checkGrad(t, "mlp/w1", w1, vw1.Grad, lossOf)
	checkGrad(t, "mlp/b1", b1, vb1.Grad, lossOf)
	checkGrad(t, "mlp/w2", w2, vw2.Grad, lossOf)
	checkGrad(t, "mlp/b2", b2, vb2.Grad, lossOf)
}
