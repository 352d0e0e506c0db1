package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/tensor"
)

func TestParamsAddGet(t *testing.T) {
	p := NewParams()
	m := tensor.New(2, 3)
	p.Add("a", m)
	if p.Get("a") != m {
		t.Fatal("Get must return the registered matrix")
	}
	if !p.Has("a") || p.Has("b") {
		t.Fatal("Has wrong")
	}
	if p.Count() != 6 {
		t.Fatalf("Count = %d", p.Count())
	}
}

func TestParamsDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := NewParams()
	p.Add("a", tensor.New(1, 1))
	p.Add("a", tensor.New(1, 1))
}

func TestParamsSnapshotRestore(t *testing.T) {
	p := NewParams()
	m := p.Add("w", tensor.FromSlice(1, 2, []float64{1, 2}))
	snap := p.Snapshot()
	m.Data[0] = 99
	p.Restore(snap)
	if m.Data[0] != 1 {
		t.Fatal("Restore failed")
	}
}

func TestParamsSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p1 := NewParams()
	w := p1.Add("layer.w", tensor.New(3, 4))
	XavierInit(w, rng)
	b := p1.Add("layer.b", tensor.FromSlice(1, 4, []float64{1, 2, 3, 4}))

	var buf bytes.Buffer
	if err := p1.EncodeGob(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}

	p2 := NewParams()
	p2.Add("layer.w", tensor.New(3, 4))
	p2.Add("layer.b", tensor.New(1, 4))
	if err := p2.DecodeGob(gob.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(p2.Get("layer.w"), w, 0) || !tensor.Equal(p2.Get("layer.b"), b, 0) {
		t.Fatal("round trip mismatch")
	}
}

func TestParamsLoadShapeMismatch(t *testing.T) {
	p1 := NewParams()
	p1.Add("w", tensor.New(2, 2))
	var buf bytes.Buffer
	if err := p1.EncodeGob(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	p2 := NewParams()
	p2.Add("w", tensor.New(3, 3))
	if err := p2.DecodeGob(gob.NewDecoder(&buf)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestParamsLoadUnknownName(t *testing.T) {
	p1 := NewParams()
	p1.Add("w", tensor.New(1, 1))
	var buf bytes.Buffer
	if err := p1.EncodeGob(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	p2 := NewParams()
	if err := p2.DecodeGob(gob.NewDecoder(&buf)); err == nil {
		t.Fatal("expected unknown-name error")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := tensor.New(100, 100)
	XavierInit(m, rng)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %v beyond limit %v", v, limit)
		}
	}
}

func TestLinearApplyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParams()
	l := NewLinear(p, "fc", 5, 3, rng)
	tape := autodiff.NewTape()
	x := tape.Constant(tensor.New(4, 5))
	y := l.Apply(tape, x)
	if r, c := y.Value.Rows, y.Value.Cols; r != 4 || c != 3 {
		t.Fatalf("Linear out %dx%d", r, c)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// The classic sanity check for the whole stack: a 2-8-2 MLP trained
	// with Adam must solve XOR.
	rng := rand.New(rand.NewSource(4))
	p := NewParams()
	mlp := []*Linear{NewLinear(p, "mlp.l0", 2, 8, rng), NewLinear(p, "mlp.l1", 8, 2, rng)}
	opt := NewAdam(0.05)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	labels := []int{0, 1, 1, 0}

	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		tape := autodiff.NewTape()
		grads := NewGradSet()
		// Bind parameters to this step's tape.
		bound := bindMLP(tape, grads, mlp)
		out := applyBound(tape, bound, tape.Constant(x))
		l := tape.SoftmaxCrossEntropy(out, labels)
		tape.Backward(l)
		opt.Step(p, []*GradSet{grads}, math.Inf(1), 1)
		loss = l.Value.Data[0]
	}
	if loss > 0.05 {
		t.Fatalf("XOR loss after training = %v", loss)
	}
	// verify predictions
	tape := autodiff.NewTape()
	out := applyBound(tape, bindMLP(tape, NewGradSet(), mlp), tape.Constant(x))
	for i, want := range labels {
		if got := out.Value.ArgMaxRow(i); got != want {
			t.Fatalf("XOR row %d predicted %d want %d", i, got, want)
		}
	}
}

// bindMLP registers each layer's parameters on the tape and tracks grads.
func bindMLP(tape *autodiff.Tape, grads *GradSet, layers []*Linear) [][2]*autodiff.Var {
	var bound [][2]*autodiff.Var
	for i, l := range layers {
		w := grads.Track(layerName(i, "w"), tape.Param(l.W))
		b := grads.Track(layerName(i, "b"), tape.Param(l.B))
		bound = append(bound, [2]*autodiff.Var{w, b})
	}
	return bound
}

func layerName(i int, suffix string) string {
	return "mlp.l" + string(rune('0'+i)) + "." + suffix
}

func applyBound(tape *autodiff.Tape, bound [][2]*autodiff.Var, x *autodiff.Var) *autodiff.Var {
	h := x
	for i, wb := range bound {
		h = tape.AddRow(tape.MatMul(h, wb[0]), wb[1])
		if i+1 < len(bound) {
			h = tape.ReLU(h)
		}
	}
	return h
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the first Adam step moves each weight by
	// ≈lr·sign(grad) regardless of gradient scale.
	p := NewParams()
	w := p.Add("w", tensor.FromSlice(1, 2, []float64{0, 0}))
	opt := NewAdam(0.01)
	tape := autodiff.NewTape()
	grads := NewGradSet()
	v := grads.Track("w", tape.Param(w))
	loss := tape.MatMul(v, tape.Constant(tensor.FromSlice(2, 1, []float64{3, -7}))) // grad = (3, -7)
	tape.Backward(loss)
	opt.Step(p, []*GradSet{grads}, math.Inf(1), 1)
	if math.Abs(w.Data[0]+0.01) > 1e-6 || math.Abs(w.Data[1]-0.01) > 1e-6 {
		t.Fatalf("adam first step = %v, want ±0.01", w.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// minimize ||w - target||^2 for a 3×1 column w: the tape has no
	// transpose, so diffᵀ is built from diff's gathered rows.
	target := []float64{3, -2, 0.5}
	p := NewParams()
	w := p.Add("w", tensor.New(3, 1))
	opt := NewAdam(0.05)
	for i := 0; i < 500; i++ {
		tape := autodiff.NewTape()
		grads := NewGradSet()
		v := grads.Track("w", tape.Param(w))
		diff := tape.Add(v, tape.Constant(tensor.FromSlice(3, 1, []float64{-target[0], -target[1], -target[2]})))
		diffT := tape.ConcatCols(tape.GatherRows(diff, []int{0}), tape.GatherRows(diff, []int{1}), tape.GatherRows(diff, []int{2}))
		loss := tape.MatMul(diffT, diff)
		tape.Backward(loss)
		opt.Step(p, []*GradSet{grads}, math.Inf(1), 1)
	}
	for i, want := range target {
		if math.Abs(w.Data[i]-want) > 1e-2 {
			t.Fatalf("adam quadratic w[%d] = %v want %v", i, w.Data[i], want)
		}
	}
}

func TestGradSetClipByGlobalNorm(t *testing.T) {
	tape := autodiff.NewTape()
	grads := NewGradSet()
	w := tensor.FromSlice(1, 2, []float64{0, 0})
	v := grads.Track("w", tape.Param(w))
	loss := tape.MatMul(v, tape.Constant(tensor.FromSlice(2, 1, []float64{3, 4}))) // grad = (3, 4)
	tape.Backward(loss)
	pre := grads.ClipByGlobalNorm(1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	g := grads.Grad("w")
	if math.Abs(math.Hypot(g.Data[0], g.Data[1])-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", math.Hypot(g.Data[0], g.Data[1]))
	}
}

func TestLinearDecaySchedule(t *testing.T) {
	if got := LinearDecay(1, 0, 10); got != 1 {
		t.Fatalf("step0 = %v", got)
	}
	if got := LinearDecay(1, 5, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("step5 = %v", got)
	}
	if got := LinearDecay(1, 20, 10); got != 0 {
		t.Fatalf("beyond total = %v", got)
	}
	if got := LinearDecay(0.3, 0, 0); got != 0.3 {
		t.Fatalf("total=0 should return base, got %v", got)
	}
}

func TestLinearDecayMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		s1, s2 := int(a%100), int(b%100)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return LinearDecay(1, s1, 100) >= LinearDecay(1, s2, 100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStopperStopsAndRestores(t *testing.T) {
	p := NewParams()
	w := p.Add("w", tensor.FromSlice(1, 1, []float64{0}))
	es := NewEarlyStopper(2)

	w.Data[0] = 1
	if es.Observe(0, 0.5, p) {
		t.Fatal("should not stop on first epoch")
	}
	w.Data[0] = 2
	if es.Observe(1, 0.8, p) { // improvement
		t.Fatal("should not stop on improvement")
	}
	w.Data[0] = 3
	if es.Observe(2, 0.7, p) {
		t.Fatal("patience 2: first bad epoch should not stop")
	}
	w.Data[0] = 4
	if !es.Observe(3, 0.6, p) {
		t.Fatal("second bad epoch should stop")
	}
	best, epoch := es.Best()
	if best != 0.8 || epoch != 1 {
		t.Fatalf("Best = %v @ %d", best, epoch)
	}
	if !es.RestoreBest(p) || w.Data[0] != 2 {
		t.Fatalf("RestoreBest → w=%v, want 2", w.Data[0])
	}
}

func TestEarlyStopperNoSnapshotRestore(t *testing.T) {
	es := NewEarlyStopper(1)
	if es.RestoreBest(NewParams()) {
		t.Fatal("RestoreBest with no observations must return false")
	}
}

func TestEarlyStopperNaNMetric(t *testing.T) {
	p := NewParams()
	w := p.Add("w", tensor.FromSlice(1, 1, []float64{0}))
	es := NewEarlyStopper(3)

	// A NaN epoch must not snapshot, must not become "best", and must count
	// against patience like any non-improving epoch.
	w.Data[0] = 1
	if es.Observe(0, math.NaN(), p) {
		t.Fatal("patience 3: first NaN epoch must not stop")
	}
	if es.RestoreBest(p) {
		t.Fatal("NaN epoch took a snapshot")
	}
	if best, epoch := es.Best(); !math.IsInf(best, -1) || epoch != -1 {
		t.Fatalf("Best after NaN = %v @ %d, want -Inf @ -1", best, epoch)
	}
	if es.NaNsSeen() != 1 {
		t.Fatalf("NaNsSeen = %d", es.NaNsSeen())
	}

	// Recovery: a later finite metric snapshots normally.
	w.Data[0] = 2
	if es.Observe(1, 0.4, p) {
		t.Fatal("finite improvement must not stop")
	}
	w.Data[0] = 3
	es.Observe(2, math.NaN(), p)
	if !es.RestoreBest(p) || w.Data[0] != 2 {
		t.Fatalf("RestoreBest after NaN → w=%v, want the finite-epoch snapshot 2", w.Data[0])
	}
}

func TestEarlyStopperAllNaNStopsOnPatience(t *testing.T) {
	p := NewParams()
	p.Add("w", tensor.FromSlice(1, 1, []float64{0}))
	es := NewEarlyStopper(2)
	stoppedAt := -1
	for epoch := 0; epoch < 10; epoch++ {
		if es.Observe(epoch, math.NaN(), p) {
			stoppedAt = epoch
			break
		}
	}
	// bestEpoch is -1, so patience 2 runs out at epoch 1 (1 - (-1) >= 2).
	if stoppedAt != 1 {
		t.Fatalf("all-NaN run stopped at epoch %d, want 1", stoppedAt)
	}
	if es.RestoreBest(p) {
		t.Fatal("all-NaN run must have no snapshot to restore")
	}
}

func TestMergeGradSetsFixedOrder(t *testing.T) {
	// Build three partial GradSets over the same parameter and check the
	// merge equals the part-order sum with freshly allocated storage.
	mk := func(vals ...float64) *GradSet {
		tape := autodiff.NewTape()
		g := NewGradSet()
		w := tensor.New(1, len(vals))
		v := g.Track("w", tape.Param(w))
		loss := tape.MatMul(v, tape.Constant(tensor.FromSlice(len(vals), 1, vals))) // grad = vals
		tape.Backward(loss)
		return g
	}
	a, b, c := mk(1, 2), mk(10, 20), mk(100, 200)
	merged := MergeGradSets([]*GradSet{a, nil, b, c})
	g := merged.Grad("w")
	if g == nil || g.Data[0] != 111 || g.Data[1] != 222 {
		t.Fatalf("merged grad = %v, want [111 222]", g)
	}
	// Inputs untouched.
	if ga := a.Grad("w"); ga.Data[0] != 1 || ga.Data[1] != 2 {
		t.Fatalf("merge mutated its input: %v", ga.Data)
	}
	// Merged storage is private: clipping it must not touch the parts.
	merged.ClipByGlobalNorm(0.001)
	if gb := b.Grad("w"); gb.Data[0] != 10 {
		t.Fatal("clipping the merge scaled a part's gradient")
	}
}

func TestGradSetNamesSorted(t *testing.T) {
	tape := autodiff.NewTape()
	g := NewGradSet()
	for _, n := range []string{"z", "a", "m"} {
		g.Track(n, tape.Param(tensor.New(1, 1)))
	}
	names := g.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("Names() = %v, want sorted", names)
	}
}

func TestParamsEncodeDecodeGobSharedStream(t *testing.T) {
	// Metadata and parameters interleaved on ONE gob stream — the model
	// persistence pattern.
	rng := rand.New(rand.NewSource(6))
	p1 := NewParams()
	w := p1.Add("w", tensor.New(2, 3))
	XavierInit(w, rng)

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode("metadata-before-params"); err != nil {
		t.Fatal(err)
	}
	if err := p1.EncodeGob(enc); err != nil {
		t.Fatal(err)
	}

	dec := gob.NewDecoder(&buf)
	var meta string
	if err := dec.Decode(&meta); err != nil {
		t.Fatal(err)
	}
	p2 := NewParams()
	p2.Add("w", tensor.New(2, 3))
	if err := p2.DecodeGob(dec); err != nil {
		t.Fatal(err)
	}
	if meta != "metadata-before-params" || !tensor.Equal(p2.Get("w"), w, 0) {
		t.Fatal("shared-stream round trip mismatch")
	}
}

func TestFitStandardization(t *testing.T) {
	rows := [][]float64{{1, 5, 2}, {3, 5, -2}, {5, 5, 0}, {7, 5, 4}}
	calls := 0
	mean, std := FitStandardization(3, func(visit func([]float64)) {
		calls++
		for _, r := range rows {
			visit(r)
		}
	})
	if calls != 2 {
		t.Fatalf("each ran %d times, want 2", calls)
	}
	// Column 1 is constant: centred, std forced to 1.
	wantMean := []float64{4, 5, 1}
	wantStd := []float64{math.Sqrt(5), 1, math.Sqrt(5)}
	for j := range wantMean {
		if mean[j] != wantMean[j] || std[j] != wantStd[j] {
			t.Fatalf("column %d: mean %v std %v, want %v %v", j, mean[j], std[j], wantMean[j], wantStd[j])
		}
	}

	if m, s := FitStandardization(3, func(func([]float64)) {}); m != nil || s != nil {
		t.Fatalf("no rows: mean %v std %v, want nil", m, s)
	}
}

// TestFitStandardizationSumsInVisitOrder pins the fit to a two-pass serial
// loop over the rows in the order they are visited: the fitted scalings
// are persisted with models, so their bits are part of every checkpoint.
func TestFitStandardizationSumsInVisitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rows := make([][]float64, 37)
	for i := range rows {
		rows[i] = make([]float64, 5)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
	}
	mean, std := FitStandardization(5, func(visit func([]float64)) {
		for _, r := range rows {
			visit(r)
		}
	})
	wantMean, wantStd := make([]float64, 5), make([]float64, 5)
	for _, r := range rows {
		for j, v := range r {
			wantMean[j] += v
		}
	}
	for j := range wantMean {
		wantMean[j] /= float64(len(rows))
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - wantMean[j]
			wantStd[j] += d * d
		}
	}
	for j := range wantStd {
		wantStd[j] = math.Sqrt(wantStd[j] / float64(len(rows)))
	}
	if !sameBits(mean, wantMean) || !sameBits(std, wantStd) {
		t.Fatalf("fit differs from the serial loop:\n mean %v\n want %v\n std %v\n want %v", mean, wantMean, std, wantStd)
	}
}
