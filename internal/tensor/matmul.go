package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix-product kernels. Every product comes in three forms:
//
//   - an allocating convenience (MatMul, MatMulTransposeA, MatMulTransposeB)
//     for cold paths and tests;
//   - an Into form writing a fresh result into caller-owned storage
//     (MatMulInto, MatMulTransposeAInto, MatMulTransposeBInto);
//   - an AddInto form accumulating out += product without any temporary
//     (MatMulAddInto, MatMulTransposeAAddInto, MatMulTransposeBAddInto) —
//     the backward-pass workhorses: gradient accumulation used to allocate a
//     product and AddInPlace it; the fused form does neither.
//
// All kernels are cache-blocked (see blockK/blockJ) but keep a fixed
// per-element accumulation order — ascending k (or r) regardless of block
// boundaries or worker count — so results are bit-identical to the naive
// triple loop and independent of parallel dispatch. Hot paths must use the
// Into/AddInto forms; cmd/lintalloc enforces this for internal/autodiff,
// internal/gnn and internal/infer.

// ParallelThreshold is the flop count (rows·inner·cols) above which the
// product kernels fan out across CPU cores. It is a variable so benchmarks
// can probe the cutoff; the default is sized for the blocked kernels, whose
// per-flop cost is low enough that fine-grained products lose more to
// goroutine handoff than they gain (the old naive-loop cutoff of 1<<20 was
// too eager). Parallelism never changes results: workers split output rows
// (or column blocks), and each output element keeps its fixed accumulation
// order.
var ParallelThreshold = 1 << 22

// Blocking geometry. blockK bounds how many B rows (the k extent) one tile
// touches; blockJ bounds the j extent so an output-row tile plus a B-row
// tile stay L1-resident (256 float64 = 2KB each). Tiles are walked in
// ascending (j-block, k-block) order with k ascending inside, so the
// per-element accumulation order equals the naive loop's.
const (
	blockK = 128
	blockJ = 256
)

// MatMul returns a×b. Panics if inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols) // fresh allocations are already zero
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a×b. out must be a.Rows×b.Cols and must not
// alias a or b. Large products are computed in parallel across row blocks.
func MatMulInto(out, a, b *Matrix) {
	checkMatMulShape(out, a, b)
	out.Zero()
	matMulDispatch(out, a, b)
}

// MatMulAddInto accumulates out += a×b with no temporary storage.
func MatMulAddInto(out, a, b *Matrix) {
	checkMatMulShape(out, a, b)
	matMulDispatch(out, a, b)
}

func checkMatMulShape(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto out %dx%d want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
}

// matMulDispatch accumulates a×b into out, serially or across row ranges
// when the product is large. Row-splitting keeps every output element owned
// by exactly one worker, so the result is independent of the worker count.
func matMulDispatch(out, a, b *Matrix) {
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, out, a, b, matMulRange)
}

// parallelRows splits [0, rows) across CPU cores when flops exceeds
// ParallelThreshold, else runs kernel(out, a, b, 0, rows) on the calling
// goroutine. kernel is a top-level function (not a capturing closure) so the
// serial path — the steady state for model-sized products — performs zero
// heap allocations.
func parallelRows(rows, flops int, out, a, b *Matrix, kernel func(out, a, b *Matrix, lo, hi int)) {
	workers := 1
	if flops > ParallelThreshold {
		workers = runtime.NumCPU()
		if workers > rows {
			workers = rows
		}
	}
	if workers <= 1 {
		kernel(out, a, b, 0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange accumulates rows [lo, hi) of a×b into out with j/k cache
// blocking and an ikj-ordered, 4-wide-unrolled inner loop. Per output
// element the additions happen in ascending k order — bit-identical to the
// naive loop whatever the block geometry.
func matMulRange(out, a, b *Matrix, lo, hi int) {
	ac, bc := a.Cols, b.Cols
	for jb := 0; jb < bc; jb += blockJ {
		je := jb + blockJ
		if je > bc {
			je = bc
		}
		for kb := 0; kb < ac; kb += blockK {
			ke := kb + blockK
			if ke > ac {
				ke = ac
			}
			for i := lo; i < hi; i++ {
				arow := a.Data[i*ac+kb : i*ac+ke]
				orow := out.Data[i*bc+jb : i*bc+je]
				for kk, av := range arow {
					if av == 0 {
						continue
					}
					brow := b.Data[(kb+kk)*bc+jb : (kb+kk)*bc+je]
					brow = brow[:len(orow)] // bounds-check elimination hint
					j := 0
					for ; j+4 <= len(orow); j += 4 {
						orow[j] += av * brow[j]
						orow[j+1] += av * brow[j+1]
						orow[j+2] += av * brow[j+2]
						orow[j+3] += av * brow[j+3]
					}
					for ; j < len(orow); j++ {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// MatMulTransposeB returns a×bᵀ.
func MatMulTransposeB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransposeBInto(out, a, b)
	return out
}

// MatMulTransposeBInto computes out = a×bᵀ. out must be a.Rows×b.Rows and
// must not alias a or b.
func MatMulTransposeBInto(out, a, b *Matrix) {
	checkMatMulTBShape(out, a, b)
	out.Zero()
	matMulTBDispatch(out, a, b)
}

// MatMulTransposeBAddInto accumulates out += a×bᵀ with no temporary.
func MatMulTransposeBAddInto(out, a, b *Matrix) {
	checkMatMulTBShape(out, a, b)
	matMulTBDispatch(out, a, b)
}

func checkMatMulTBShape(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransposeB %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransposeBInto out %dx%d want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
}

func matMulTBDispatch(out, a, b *Matrix) {
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, out, a, b, matMulTBRange)
}

// matMulTBRange accumulates rows [lo, hi) of a×bᵀ into out. Each output
// element is an independent dot product over contiguous rows of a and b.
// Blocking happens over b's rows (a tile of b stays cache-resident across
// the i sweep) — never over k: the dot product seeds its accumulator from
// out and adds terms in ascending k order, so both the Into and AddInto
// forms are bit-identical to the naive loop. (Splitting k into block
// partials would re-associate the sum and move ulps.)
func matMulTBRange(out, a, b *Matrix, lo, hi int) {
	ac, oc := a.Cols, out.Cols
	const rowTile = 48 // b rows per tile: 48 rows × 128 cols ≈ 48KB, L2-resident
	for jb := 0; jb < b.Rows; jb += rowTile {
		je := jb + rowTile
		if je > b.Rows {
			je = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*ac : (i+1)*ac]
			orow := out.Data[i*oc : (i+1)*oc]
			for j := jb; j < je; j++ {
				brow := b.Data[j*ac : (j+1)*ac]
				brow = brow[:len(arow)]
				s := orow[j]
				for k, av := range arow {
					s += av * brow[k]
				}
				orow[j] = s
			}
		}
	}
}

// MatMulTransposeA returns aᵀ×b.
func MatMulTransposeA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransposeAInto(out, a, b)
	return out
}

// MatMulTransposeAInto computes out = aᵀ×b. out must be a.Cols×b.Cols and
// must not alias a or b.
func MatMulTransposeAInto(out, a, b *Matrix) {
	checkMatMulTAShape(out, a, b)
	out.Zero()
	matMulTADispatch(out, a, b)
}

// MatMulTransposeAAddInto accumulates out += aᵀ×b with no temporary.
func MatMulTransposeAAddInto(out, a, b *Matrix) {
	checkMatMulTAShape(out, a, b)
	matMulTADispatch(out, a, b)
}

func checkMatMulTAShape(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransposeA (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransposeAInto out %dx%d want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
}

// matMulTADispatch parallelizes aᵀ×b over output rows (columns of a). Every
// worker scans all r, reading a strided column slice but writing a disjoint
// row range of out, so accumulation per element stays ascending-r.
func matMulTADispatch(out, a, b *Matrix) {
	parallelRows(a.Cols, a.Rows*a.Cols*b.Cols, out, a, b, matMulTARange)
}

// matMulTARange accumulates output rows [lo, hi) of aᵀ×b: for each input
// row r, out[i] += a[r][i]·b[r] for i in [lo, hi). The r loop is outermost
// so b.Row(r) is loaded once per sweep; per output element the additions
// happen in ascending r order.
func matMulTARange(out, a, b *Matrix, lo, hi int) {
	ac, bc := a.Cols, b.Cols
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*ac+lo : r*ac+hi]
		brow := b.Data[r*bc : (r+1)*bc]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[(lo+i)*bc : (lo+i+1)*bc]
			orow = orow[:len(brow)]
			j := 0
			for ; j+4 <= len(brow); j += 4 {
				orow[j] += av * brow[j]
				orow[j+1] += av * brow[j+1]
				orow[j+2] += av * brow[j+2]
				orow[j+3] += av * brow[j+3]
			}
			for ; j < len(brow); j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// --- naive references (tests only) ---
//
// The straight triple loops the product kernels must match bit-for-bit.
// They stay package-level so the kernel edge-case tests always have an
// independent oracle; production code never calls them.

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			for k := 0; k < a.Cols; k++ {
				out.Data[i*b.Cols+j] += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
		}
	}
	return out
}

func naiveMatMulTransposeA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			for r := 0; r < a.Rows; r++ {
				out.Data[i*b.Cols+j] += a.Data[r*a.Cols+i] * b.Data[r*b.Cols+j]
			}
		}
	}
	return out
}

func naiveMatMulTransposeB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			for k := 0; k < a.Cols; k++ {
				out.Data[i*b.Rows+j] += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
		}
	}
	return out
}

func naiveMatMulF32(a, b *F32) *F32 {
	out := NewF32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			for k := 0; k < a.Cols; k++ {
				out.Data[i*b.Cols+j] += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
		}
	}
	return out
}
