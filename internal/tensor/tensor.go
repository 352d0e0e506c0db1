// Package tensor provides a dense, row-major float64 matrix type and the
// linear-algebra kernels the rest of the system is built on.
//
// The package is deliberately small: everything Pythagoras needs — matrix
// products, broadcasts, row gather/scatter — and nothing else.
// All operations are deterministic and allocation behaviour is explicit:
// functions ending in InPlace mutate their receiver, functions ending in
// Into write into caller-owned storage (the hot-path forms — see matmul.go
// and the autodiff arena that feeds them), and everything else allocates a
// fresh result. A float32 mirror of the storage type lives in f32.go for
// the frozen encoder.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice returns a rows×cols matrix backed by a copy of data.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// FromRows returns a matrix whose i-th row is rows[i]. All rows must have
// equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged FromRows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i. Mutating it mutates the matrix.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0 and returns m.
func (m *Matrix) Zero() *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// SameShape reports whether m and other have identical dimensions.
func (m *Matrix) SameShape(other *Matrix) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols
}

func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Add returns a+b (same shape).
func Add(a, b *Matrix) *Matrix {
	c := a.Clone()
	c.AddInPlace(b)
	return c
}

// AddInPlace computes m += other and returns m.
func (m *Matrix) AddInPlace(other *Matrix) *Matrix {
	if !m.SameShape(other) {
		panic(fmt.Sprintf("tensor: AddInPlace %v += %v", m, other))
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
	return m
}

// AddScaledInPlace computes m += s·other and returns m.
func (m *Matrix) AddScaledInPlace(other *Matrix, s float64) *Matrix {
	if !m.SameShape(other) {
		panic(fmt.Sprintf("tensor: AddScaledInPlace %v += s*%v", m, other))
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
	return m
}

// AddRowBroadcast returns a matrix where row vector v (1×Cols) is added to
// every row of m.
func AddRowBroadcast(m, v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowBroadcast %v + %v", m, v))
	}
	out := m.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j, bv := range v.Data {
			row[j] += bv
		}
	}
	return out
}

// Scale returns s·m.
func (m *Matrix) Scale(s float64) *Matrix {
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// ScaleInPlace computes m *= s and returns m.
func (m *Matrix) ScaleInPlace(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Apply returns a new matrix with f applied elementwise.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	c := m.Clone()
	for i, v := range c.Data {
		c.Data[i] = f(v)
	}
	return c
}

// GatherRows returns a matrix whose i-th row is m.Row(idx[i]).
func GatherRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto copies m.Row(idx[i]) into row i of out. out must be
// len(idx)×m.Cols.
func GatherRowsInto(out, m *Matrix, idx []int) {
	if out.Rows != len(idx) || out.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: GatherRowsInto out %v want %dx%d", out, len(idx), m.Cols))
	}
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
}

// ScatterAddRows adds each row i of src into dst row idx[i].
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: ScatterAddRows dst=%v src=%v idx=%d", dst, src, len(idx)))
	}
	for i, r := range idx {
		drow := dst.Row(r)
		srow := src.Row(i)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// ScaleRows multiplies row i of m by s[i], returning a new matrix.
func ScaleRows(m *Matrix, s []float64) *Matrix {
	if len(s) != m.Rows {
		panic(fmt.Sprintf("tensor: ScaleRows %v with %d scales", m, len(s)))
	}
	out := m.Clone()
	for i, sv := range s {
		row := out.Row(i)
		for j := range row {
			row[j] *= sv
		}
	}
	return out
}

// ConcatRows stacks matrices vertically. All inputs must share Cols.
func ConcatRows(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	at := 0
	for _, m := range ms {
		copy(out.Data[at:at+len(m.Data)], m.Data)
		at += len(m.Data)
	}
	return out
}

// ArgMaxRow returns the index of the maximum element in row i.
func (m *Matrix) ArgMaxRow(i int) int {
	row := m.Row(i)
	best, bv := 0, math.Inf(-1)
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// --- Into-variants of the elementwise ops ---
//
// The allocating forms above stay for cold paths and tests; the forms below
// write into caller-owned (typically arena-recycled) storage and are what
// the autodiff tape and inference engine use steady-state.

// AddInto computes out = a+b elementwise. out may alias a or b.
func AddInto(out, a, b *Matrix) {
	if !out.SameShape(a) || !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: AddInto out=%v a=%v b=%v", out, a, b))
	}
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// ScaleInto computes out = s·m. out may alias m.
func ScaleInto(out, m *Matrix, s float64) {
	if !out.SameShape(m) {
		panic(fmt.Sprintf("tensor: ScaleInto %v <- %v", out, m))
	}
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
}

// AddRowBroadcastInto computes out = m with row vector v (1×Cols) added to
// every row. out may alias m.
func AddRowBroadcastInto(out, m, v *Matrix) {
	if v.Rows != 1 || v.Cols != m.Cols || !out.SameShape(m) {
		panic(fmt.Sprintf("tensor: AddRowBroadcastInto out=%v m=%v v=%v", out, m, v))
	}
	for i := 0; i < m.Rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for j, bv := range v.Data {
			orow[j] = mrow[j] + bv
		}
	}
}

// ScaleRowsInto multiplies row i of m by s[i], writing into out. out may
// alias m.
func ScaleRowsInto(out, m *Matrix, s []float64) {
	if len(s) != m.Rows || !out.SameShape(m) {
		panic(fmt.Sprintf("tensor: ScaleRowsInto out=%v m=%v scales=%d", out, m, len(s)))
	}
	for i, sv := range s {
		mrow := m.Row(i)
		orow := out.Row(i)
		for j, v := range mrow {
			orow[j] = sv * v
		}
	}
}
