package tensor

import (
	"fmt"
	"math/bits"
)

// F32 is a dense row-major matrix of float32 values — the storage type of
// the frozen LM encoder, whose weights are never trained and therefore
// never need float64 gradient precision. Halving the element size halves
// the encoder's cache footprint, which is where the frozen-encode stage
// spends its cycles. float32 arithmetic is just as deterministic as
// float64: the same inputs produce the same bits on every run and every
// worker count. Values are widened to float64 only at the tape boundary
// (see core.Model.Encode).
type F32 struct {
	Rows, Cols int
	Data       []float32
}

// NewF32 returns a zero-initialized rows×cols float32 matrix.
func NewF32(rows, cols int) *F32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &F32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a slice aliasing row i. Mutating it mutates the matrix.
func (m *F32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns the element at (i, j).
func (m *F32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *F32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

func (m *F32) String() string {
	return fmt.Sprintf("F32(%dx%d)", m.Rows, m.Cols)
}

// MatMulF32Into computes out = a×b over float32 storage. f32Strips computes
// the output columns of b's whole 8-column strips (SSE assembly on amd64, a
// Go loop elsewhere); any leftover columns go one at a time here. Every output element
// accumulates from zero, over ascending k, in the naive triple loop's
// order, and so keeps its bits. Serial on purpose: the inference engine
// parallelizes across tables, not inside one product.
func MatMulF32Into(out, a, b *F32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulF32 %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulF32Into out %dx%d want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	// The assembly strips do no bounds checks, so a Data shorter than its
	// shape must panic here rather than be read or written past its end.
	// Rows·Cols is taken unsigned and 128 bits wide, so a negative or
	// overflowing shape fails too.
	for _, m := range [...]*F32{out, a, b} {
		if hi, n := bits.Mul64(uint64(m.Rows), uint64(m.Cols)); hi != 0 || n > uint64(len(m.Data)) {
			panic(fmt.Sprintf("tensor: MatMulF32Into %dx%d operand has %d elements", m.Rows, m.Cols, len(m.Data)))
		}
	}
	f32Strips(out, a, b)
	ac, bc := a.Cols, b.Cols
	for j := bc &^ 7; j < bc; j++ {
		for i := 0; i < a.Rows; i++ {
			var c float32
			for k, av := range a.Data[i*ac : (i+1)*ac] {
				c += av * b.Data[k*bc+j]
			}
			out.Data[i*bc+j] = c
		}
	}
}

// WidenInto copies the float32 matrix src into the float64 matrix dst —
// the one sanctioned float32→float64 crossing, used where frozen-encoder
// output enters the training tape.
func WidenInto(dst *Matrix, src *F32) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: WidenInto %v <- %v", dst, src))
	}
	for i, v := range src.Data {
		dst.Data[i] = float64(v)
	}
}

// Widen returns a freshly allocated float64 copy of m.
func (m *F32) Widen() *Matrix {
	out := New(m.Rows, m.Cols)
	WidenInto(out, m)
	return out
}

// NarrowInto copies the float64 matrix src into the float32 matrix dst,
// rounding each element to nearest-even — used when deterministic float64
// initialization routines feed float32 storage.
func NarrowInto(dst *F32, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: NarrowInto %v <- %v", dst, src))
	}
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
}
