package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %v with %d data", m, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("At wrong: %v", m.Data)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set/At roundtrip failed")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %v %v", m, m.Data)
	}
	if got := FromRows(nil); got.Rows != 0 {
		t.Fatal("FromRows(nil) should be empty")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowAliases(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row must alias underlying data")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 42
	if m.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(MatMul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Equal(MatMul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTransposeBMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(3, 5), New(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := MatMulTransposeB(a, b)
	want := MatMul(a, transpose(b))
	if !Equal(got, want, 1e-10) {
		t.Fatal("MatMulTransposeB mismatch vs explicit transpose")
	}
}

func TestMatMulTransposeAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(5, 3), New(5, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := MatMulTransposeA(a, b)
	want := MatMul(transpose(a), b)
	if !Equal(got, want, 1e-10) {
		t.Fatal("MatMulTransposeA mismatch vs explicit transpose")
	}
}

// transpose returns mᵀ: the explicit oracle for the fused transpose
// products.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func TestAddRowBroadcast(t *testing.T) {
	m := FromSlice(2, 3, []float64{0, 0, 0, 1, 1, 1})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	got := AddRowBroadcast(m, v)
	want := FromSlice(2, 3, []float64{10, 20, 30, 11, 21, 31})
	if !Equal(got, want, 0) {
		t.Fatalf("AddRowBroadcast = %v", got.Data)
	}
}

func TestScale(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, -2, 3})
	if got := m.Scale(2); !Equal(got, FromSlice(1, 3, []float64{2, -4, 6}), 0) {
		t.Fatalf("Scale = %v", got.Data)
	}
}

func TestAddScaledInPlace(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	m.AddScaledInPlace(FromSlice(1, 2, []float64{10, 10}), 0.5)
	if !Equal(m, FromSlice(1, 2, []float64{6, 7}), 0) {
		t.Fatalf("AddScaledInPlace = %v", m.Data)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	idx := []int{2, 0, 2}
	g := GatherRows(m, idx)
	want := FromSlice(3, 2, []float64{5, 6, 1, 2, 5, 6})
	if !Equal(g, want, 0) {
		t.Fatalf("GatherRows = %v", g.Data)
	}
	dst := New(3, 2)
	ScatterAddRows(dst, g, idx)
	// Row 2 receives itself twice, row 0 once.
	wantDst := FromSlice(3, 2, []float64{1, 2, 0, 0, 10, 12})
	if !Equal(dst, wantDst, 0) {
		t.Fatalf("ScatterAddRows = %v", dst.Data)
	}
}

func TestScaleRows(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 1, 2, 2})
	got := ScaleRows(m, []float64{2, 0.5})
	if !Equal(got, FromSlice(2, 2, []float64{2, 2, 1, 1}), 0) {
		t.Fatalf("ScaleRows = %v", got.Data)
	}
}

func TestConcatRows(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	v := ConcatRows(a, b)
	if v.Rows != 3 || v.At(2, 1) != 6 {
		t.Fatalf("ConcatRows = %v %v", v, v.Data)
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 5, 2, -1, -3, -2})
	if got := m.ArgMaxRow(0); got != 1 {
		t.Fatalf("ArgMaxRow(0) = %d", got)
	}
	if got := m.ArgMaxRow(1); got != 0 {
		t.Fatalf("ArgMaxRow(1) = %d", got)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(2, 3), New(3, 4), New(4, 2)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		return Equal(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApply(t *testing.T) {
	m := FromSlice(1, 3, []float64{-1, 0, 2})
	got := m.Apply(func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	})
	if !Equal(got, FromSlice(1, 3, []float64{0, 0, 2}), 0) {
		t.Fatalf("Apply = %v", got.Data)
	}
	if m.Data[0] != -1 {
		t.Fatal("Apply must not mutate receiver")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := New(128, 128)
	y := New(128, 128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	out := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}
