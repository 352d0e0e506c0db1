package tensor

import "fmt"

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

// MatMulF32Into computes out = a×b over float32 storage. It walks b in
// 8-column strips, then any leftover columns one at a time; for each row of
// a, the strip's outputs accumulate in registers, from zero, over ascending
// k, and are stored once. Every element thus adds its terms in the naive
// triple loop's order and keeps its bits. Serial on purpose: the inference
// engine parallelizes across tables, not inside one product.
func MatMulF32Into(out, a, b *F32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulF32 %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulF32Into out %dx%d want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	ac, bc := a.Cols, b.Cols
	j := 0
	for ; j+8 <= bc; j += 8 {
		for i := 0; i < a.Rows; i++ {
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for k, av := range a.Data[i*ac : (i+1)*ac] {
				bs := (*[8]float32)(b.Data[k*bc+j:])
				c0 += av * bs[0]
				c1 += av * bs[1]
				c2 += av * bs[2]
				c3 += av * bs[3]
				c4 += av * bs[4]
				c5 += av * bs[5]
				c6 += av * bs[6]
				c7 += av * bs[7]
			}
			o := (*[8]float32)(out.Data[i*bc+j:])
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
		}
	}
	for ; j < bc; j++ {
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
