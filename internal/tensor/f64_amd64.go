package tensor

// The float64 product kernels' innermost loops in SSE2 assembly
// (f64_amd64.s). A lane of a packed MULPD or ADDPD is one output column, so
// every element keeps the scalar loop's order: seeded from out, one term
// per k (or r), ascending. Each product and sum is formed in the operand
// order a default build compiles the scalar loop to, so even a NaN keeps
// its payload (TestF64KernelOperandOrder).
// Neither routine checks bounds: the callers in matmul.go pass exactly the
// row or strip a call touches, sliced in Go, so Go's bounds checks cover
// every address.

// f64Axpy adds a·src[j] to dst[j] for j < len(dst), as the product src·a
// and then the sum p+dst. src must hold len(dst) elements.
//
//go:noescape
func f64Axpy(dst []float64, a float64, src []float64)

// f64Dot8 adds Σₖ a[k]·b[c·len(a)+k], over ascending k, to out[c] for each
// of the 8 columns c: each term as the product a·b and then the sum s+p.
// b must hold 8·len(a) elements, eight rows of len(a).
//
//go:noescape
func f64Dot8(out *[8]float64, a, b []float64)
