package tensor

// f32StripsSSE is f32Strips in SSE assembly (f32_amd64.s). Each lane of a
// packed multiply or add is one output column, so every element still
// starts at +0 and adds a[i,k]·b[k,j] over ascending k, each product and
// sum rounded to float32 exactly as the scalar MULSS/ADDSS would. It reads
// rows·inner elements of a, inner·cols of b and writes rows·cols of out
// with no bounds checks: MatMulF32Into checks every length first.
//
//go:noescape
func f32StripsSSE(out, a, b []float32, rows, inner, cols int)

func f32Strips(out, a, b *F32) { f32StripsSSE(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols) }
