package tensor

import (
	"math/rand"
	"testing"
)

// The Into forms must agree with their allocating counterparts exactly —
// same loops, different storage — including when out aliases an input.
func TestElementwiseIntoMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := randMat(rng, 5, 7), randMat(rng, 5, 7)
	out := New(5, 7)

	AddInto(out, a, b)
	bitEqual(t, "AddInto", out, Add(a, b))

	ScaleInto(out, a, -2.5)
	bitEqual(t, "ScaleInto", out, a.Scale(-2.5))

	v := randMat(rng, 1, 7)
	AddRowBroadcastInto(out, a, v)
	bitEqual(t, "AddRowBroadcastInto", out, AddRowBroadcast(a, v))

	s := []float64{2, -1, 0.5, 0, 3}
	ScaleRowsInto(out, a, s)
	bitEqual(t, "ScaleRowsInto", out, ScaleRows(a, s))

	idx := []int{4, 0, 2}
	gathered := New(3, 7)
	GatherRowsInto(gathered, a, idx)
	bitEqual(t, "GatherRowsInto", gathered, GatherRows(a, idx))

	// Aliased: out == a must still be correct for the may-alias forms.
	aliased := a.Clone()
	AddInto(aliased, aliased, b)
	bitEqual(t, "AddInto aliased", aliased, Add(a, b))
	aliased = a.Clone()
	ScaleInto(aliased, aliased, 4)
	bitEqual(t, "ScaleInto aliased", aliased, a.Scale(4))
}

func TestIntoShapeMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"AddInto", func() { AddInto(New(2, 2), New(2, 2), New(2, 3)) }},
		{"ScaleInto", func() { ScaleInto(New(2, 2), New(2, 3), 2) }},
		{"AddRowBroadcastInto", func() { AddRowBroadcastInto(New(2, 3), New(2, 3), New(1, 2)) }},
		{"ScaleRowsInto", func() { ScaleRowsInto(New(2, 3), New(2, 3), []float64{1}) }},
		{"GatherRowsInto", func() { GatherRowsInto(New(2, 3), New(4, 3), []int{0}) }},
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

func TestF32Accessors(t *testing.T) {
	m := NewF32(2, 3)
	m.Set(1, 2, 4.5)
	if m.At(1, 2) != 4.5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = -1 // Row aliases storage
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias the matrix")
	}
	if got := m.String(); got != "F32(2x3)" {
		t.Fatalf("String = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative shape must panic")
		}
	}()
	NewF32(-1, 2)
}

func TestWidenNarrowShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"WidenInto":  func() { WidenInto(New(2, 2), NewF32(2, 3)) },
		"NarrowInto": func() { NarrowInto(NewF32(3, 2), New(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected shape panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixString(t *testing.T) {
	if got := New(3, 4).String(); got != "Matrix(3x4)" {
		t.Fatalf("String = %q", got)
	}
}
