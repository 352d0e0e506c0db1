package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randMat fills an r×c matrix from rng — the shared input generator for the
// kernel edge-case tests.
func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randF32 is randMat narrowed to float32 storage.
func randF32(rng *rand.Rand, r, c int) *F32 {
	m := NewF32(r, c)
	NarrowInto(m, randMat(rng, r, c))
	return m
}

func bitEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-identity violated)",
				name, i, got.Data[i], want.Data[i])
		}
	}
}

// checkF32Kernel requires MatMulF32Into(a, b) to equal the naive float32
// triple loop bit for bit (Float32bits, so a signed zero counts too).
func checkF32Kernel(t *testing.T, a, b *F32) {
	t.Helper()
	got := NewF32(a.Rows, b.Cols)
	MatMulF32Into(got, a, b)
	want := naiveMatMulF32(a, b)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("MatMulF32Into %dx%d·%dx%d: element %d = %v, want %v (bit-identity violated)",
				a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers the geometry corners of the blocked kernels: 1×1,
// prime dimensions (never a multiple of blockJ/blockK), tall/skinny and
// short/wide extremes, exact block multiples, and off-by-one straddles of
// the blockK=128 and blockJ=256 boundaries. Its column counts also land
// below, on and beside the float32 kernel's 8-column strips.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 4},
	{7, 13, 17},
	{31, 37, 41},
	{300, 3, 2},  // tall and skinny
	{3, 2, 300},  // short and wide
	{1, 128, 1},  // k exactly one block
	{1, 129, 1},  // k one past a block boundary
	{2, 127, 2},  // k one short of a block
	{5, 257, 5},  // k straddling two blocks
	{4, 16, 255}, // j one short of a block
	{4, 16, 256}, // j exactly one block
	{4, 16, 257}, // j straddling a block boundary
}

// TestBlockedKernelsMatchNaive pins the load-bearing substrate invariant:
// the cache-blocked kernels are bit-identical to the naive triple loops for
// every product variant, whatever the shape. (The blocked kernels keep a
// fixed ascending-k/-r accumulation order per output element precisely so
// this holds.)
func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range kernelShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		bitEqual(t, "MatMul", MatMul(a, b), naiveMatMul(a, b))

		at := randMat(rng, s.k, s.m) // aᵀ×b: a is k×m, b is k×n, out m×n
		bt := randMat(rng, s.k, s.n)
		bitEqual(t, "MatMulTransposeA", MatMulTransposeA(at, bt), naiveMatMulTransposeA(at, bt))

		ab := randMat(rng, s.m, s.k) // a×bᵀ: a is m×k, b is n×k, out m×n
		bb := randMat(rng, s.n, s.k)
		bitEqual(t, "MatMulTransposeB", MatMulTransposeB(ab, bb), naiveMatMulTransposeB(ab, bb))

		checkF32Kernel(t, randF32(rng, s.m, s.k), randF32(rng, s.k, s.n))
	}
}

// TestKernelsZeroExtents: empty row/inner/column extents must produce
// well-shaped, all-zero (or empty) results, not panics.
func TestKernelsZeroExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct{ m, k, n int }{
		{0, 5, 4}, // zero output rows
		{3, 0, 4}, // empty inner dimension: out must be all zeros
		{3, 5, 0}, // zero output cols
		{0, 0, 0},
	}
	for _, s := range cases {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		bitEqual(t, "MatMul", MatMul(a, b), naiveMatMul(a, b))

		at := randMat(rng, s.k, s.m)
		bt := randMat(rng, s.k, s.n)
		bitEqual(t, "MatMulTransposeA", MatMulTransposeA(at, bt), naiveMatMulTransposeA(at, bt))

		ab := randMat(rng, s.m, s.k)
		bb := randMat(rng, s.n, s.k)
		bitEqual(t, "MatMulTransposeB", MatMulTransposeB(ab, bb), naiveMatMulTransposeB(ab, bb))

		checkF32Kernel(t, randF32(rng, s.m, s.k), randF32(rng, s.k, s.n))
	}
}

// TestF32KernelZeroEntries: exact +0 and -0 entries in a (and one all-zero
// row) must leave every output element with the naive loop's bits, whether
// or not the kernel skips their zero products.
func TestF32KernelZeroEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a, b := randF32(rng, 9, 21), randF32(rng, 21, 19)
	for i := range a.Data {
		switch {
		case i/a.Cols == 4 || i%3 == 0:
			a.Data[i] = 0
		case i%5 == 0:
			a.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	checkF32Kernel(t, a, b)
}

// TestParallelDispatchBitIdentical forces the parallel row-split path (by
// dropping ParallelThreshold to 0) and checks results stay bit-identical to
// the serial naive loop: workers own disjoint output rows and never change
// any element's accumulation order.
func TestParallelDispatchBitIdentical(t *testing.T) {
	saved := ParallelThreshold
	ParallelThreshold = 0
	defer func() { ParallelThreshold = saved }()

	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 67, 33)
	b := randMat(rng, 33, 45)
	bitEqual(t, "MatMul(parallel)", MatMul(a, b), naiveMatMul(a, b))

	at := randMat(rng, 33, 67)
	bitEqual(t, "MatMulTransposeA(parallel)", MatMulTransposeA(at, b), naiveMatMulTransposeA(at, b))

	bb := randMat(rng, 45, 33)
	bitEqual(t, "MatMulTransposeB(parallel)", MatMulTransposeB(a, bb), naiveMatMulTransposeB(a, bb))
}

// TestAddIntoSeededNaive checks all three AddInto forms against naive loops
// run on top of the same seed matrix (term-by-term accumulation order is
// identical, so equality is bitwise).
func TestAddIntoSeededNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, k, n := 9, 131, 17

	// out += a×b
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	seed := randMat(rng, m, n)
	got := seed.Clone()
	MatMulAddInto(got, a, b)
	want := seed.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for kk := 0; kk < k; kk++ {
				want.Data[i*n+j] += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
		}
	}
	bitEqual(t, "MatMulAddInto", got, want)

	// out += aᵀ×b
	at, bt := randMat(rng, k, m), randMat(rng, k, n)
	seed = randMat(rng, m, n)
	got = seed.Clone()
	MatMulTransposeAAddInto(got, at, bt)
	want = seed.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for r := 0; r < k; r++ {
				want.Data[i*n+j] += at.Data[r*m+i] * bt.Data[r*n+j]
			}
		}
	}
	bitEqual(t, "MatMulTransposeAAddInto", got, want)

	// out += a×bᵀ
	ab, bb := randMat(rng, m, k), randMat(rng, n, k)
	seed = randMat(rng, m, n)
	got = seed.Clone()
	MatMulTransposeBAddInto(got, ab, bb)
	want = seed.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for kk := 0; kk < k; kk++ {
				want.Data[i*n+j] += ab.Data[i*k+kk] * bb.Data[j*k+kk]
			}
		}
	}
	bitEqual(t, "MatMulTransposeBAddInto", got, want)
}

func TestIntoShapePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(New(2, 2), New(2, 3), New(3, 3)) }},
		{"MatMulInto inner", func() { MatMulInto(New(2, 3), New(2, 4), New(3, 3)) }},
		{"MatMulTransposeAInto", func() { MatMulTransposeAInto(New(2, 2), New(4, 3), New(4, 3)) }},
		{"MatMulTransposeBInto", func() { MatMulTransposeBInto(New(2, 2), New(2, 3), New(4, 3)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected shape panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// TestIntoKernelsAllocFree pins the whole point of the Into forms: the
// steady-state hot path performs zero heap allocations. A regression here
// means a kernel regained a hidden temporary.
func TestIntoKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 32, 48)
	b := randMat(rng, 48, 24)
	at := randMat(rng, 48, 32)
	bb := randMat(rng, 24, 48)
	out := New(32, 24)
	outTA := New(32, 24) // aᵀ(48×32) × b(48×24) → 32×24

	kernels := map[string]func(){
		"MatMulInto":              func() { MatMulInto(out, a, b) },
		"MatMulAddInto":           func() { MatMulAddInto(out, a, b) },
		"MatMulTransposeAInto":    func() { MatMulTransposeAInto(outTA, at, b) },
		"MatMulTransposeBInto":    func() { MatMulTransposeBInto(out, a, bb) },
		"MatMulTransposeBAddInto": func() { MatMulTransposeBAddInto(out, a, bb) },
	}
	for name, fn := range kernels {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestF32KernelMatchesFloat64 checks the float32 kernel against the widened
// float64 naive loop within float32 tolerance, plus Widen/Narrow round-trip
// exactness.
func TestF32KernelMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, k, n := 11, 259, 19
	a64, b64 := randMat(rng, m, k), randMat(rng, k, n)
	a32, b32 := NewF32(m, k), NewF32(k, n)
	NarrowInto(a32, a64)
	NarrowInto(b32, b64)
	// Re-widen so the float64 oracle sees exactly the float32 inputs.
	aw, bw := a32.Widen(), b32.Widen()
	want := naiveMatMul(aw, bw)

	out := NewF32(m, n)
	MatMulF32Into(out, a32, b32)
	for i := range out.Data {
		diff := float64(out.Data[i]) - want.Data[i]
		if diff < 0 {
			diff = -diff
		}
		// float32 accumulation over k=259 terms: generous but finite bound.
		if diff > 1e-3 {
			t.Fatalf("MatMulF32Into element %d = %v, want ≈%v", i, out.Data[i], want.Data[i])
		}
	}

	// Widen∘Narrow on float32-representable data is the identity.
	back := NewF32(m, k)
	NarrowInto(back, aw)
	for i := range back.Data {
		if back.Data[i] != a32.Data[i] {
			t.Fatalf("Narrow(Widen(x)) != x at %d", i)
		}
	}
}

// TestF32KernelAllocFree: the float32 kernel is serial and must not
// allocate either.
func TestF32KernelAllocFree(t *testing.T) {
	a, b := NewF32(16, 32), NewF32(32, 8)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float32(i%5) - 2
	}
	out := NewF32(16, 8)
	if n := testing.AllocsPerRun(20, func() { MatMulF32Into(out, a, b) }); n != 0 {
		t.Errorf("MatMulF32Into: %v allocs/op, want 0", n)
	}
}

// BenchmarkParallelThreshold probes the flop cutoff at which row-parallel
// dispatch starts paying for the blocked kernels: the same 256×256×256
// product (~16.8M flops) is timed with ParallelThreshold set far above the
// product (serial) and at zero (parallel). Comparing the two cases on a
// target machine is how the default in matmul.go was (and should be)
// tuned — the variable exists exactly so benchmarks can override it.
func BenchmarkParallelThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	const n = 256
	a, m := randMat(rng, n, n), randMat(rng, n, n)
	out := New(n, n)
	saved := ParallelThreshold
	defer func() { ParallelThreshold = saved }()
	for _, bc := range []struct {
		name      string
		threshold int
	}{
		{"serial", 1 << 62},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ParallelThreshold = bc.threshold
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, a, m)
			}
		})
	}
}

// BenchmarkMatMulBlockedVsNaive tracks what the cache blocking buys over
// the straight triple loop at a model-typical size.
func BenchmarkMatMulBlockedVsNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	x, y := randMat(rng, 192, 192), randMat(rng, 192, 192)
	out := New(192, 192)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveMatMul(x, y)
		}
	})
}
