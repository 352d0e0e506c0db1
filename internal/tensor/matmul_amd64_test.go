package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// On amd64 every product and sum in the float64 kernels is one SSE2
// instruction, and given two NaNs an SSE2 instruction returns its first
// source operand's. So the payload that survives shows each operation's
// operand order, which these oracles spell out for the assembly: a×b and
// aᵀ×b skip a zero entry of a and otherwise form b·a, then p+out; a×bᵀ
// forms a·b, then out+p. Those are the orders a default build compiles
// the scalar loops to (the portable leaves of f64_other.go, built for
// amd64, pass this test too), but the compiler is free to pick others,
// and a -race build does; so a×bᵀ is checked only over b's whole 8-row
// strips, leaving out its leftover columns, which stay a Go loop.

// sseMul and sseAdd are x·y and x+y, keeping x's payload when both are NaN.
func sseMul(x, y float64) float64 {
	if x != x {
		return x
	}
	return x * y
}

func sseAdd(x, y float64) float64 {
	if x != x {
		return x
	}
	return x + y
}

// orderedAddInto is out += a×b in the kernel's operand order.
func orderedAddInto(out, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				o := &out.Data[i*out.Cols+j]
				*o = sseAdd(sseMul(b.Data[k*b.Cols+j], av), *o)
			}
		}
	}
}

// orderedTAAddInto is out += aᵀ×b in the kernel's operand order.
func orderedTAAddInto(out, a, b *Matrix) {
	for r := 0; r < a.Rows; r++ {
		for i := 0; i < a.Cols; i++ {
			av := a.Data[r*a.Cols+i]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				o := &out.Data[i*out.Cols+j]
				*o = sseAdd(sseMul(b.Data[r*b.Cols+j], av), *o)
			}
		}
	}
}

// orderedTBAddInto is out += a×bᵀ in the kernel's operand order.
func orderedTBAddInto(out, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := out.Data[i*out.Cols+j]
			for k := 0; k < a.Cols; k++ {
				s = sseAdd(s, sseMul(a.Data[i*a.Cols+k], b.Data[j*b.Cols+k]))
			}
			out.Data[i*out.Cols+j] = s
		}
	}
}

// sprinkle replaces about one entry in seven of m with a quiet NaN of a
// fresh payload and, when zeros is set, one in seven with +0 and one in
// seven with −0.
func sprinkle(rng *rand.Rand, m *Matrix, payload *uint64, zeros bool) *Matrix {
	for i := range m.Data {
		switch r := rng.Intn(7); {
		case r == 0:
			*payload++
			m.Data[i] = qnan(*payload)
		case r == 1 && zeros:
			m.Data[i] = 0
		case r == 2 && zeros:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// TestF64KernelOperandOrder runs the three AddInto forms on NaN-seeded out
// matrices and operands full of NaNs with distinct payloads and of ±0
// entries, over shapes that fill every lane of the 8-wide loops and of
// f64Axpy's tails, and requires the oracles' bits.
func TestF64KernelOperandOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var payload uint64
	for _, s := range []struct{ m, k, n int }{{1, 1, 1}, {3, 5, 8}, {9, 21, 19}, {16, 40, 33}, {5, 130, 263}} {
		a := sprinkle(rng, randMat(rng, s.m, s.k), &payload, true)
		b := sprinkle(rng, randMat(rng, s.k, s.n), &payload, false)
		seed := sprinkle(rng, randMat(rng, s.m, s.n), &payload, false)
		got, want := seed.Clone(), seed.Clone()
		MatMulAddInto(got, a, b)
		orderedAddInto(want, a, b)
		bitEqual(t, "MatMulAddInto", got, want)

		at := sprinkle(rng, randMat(rng, s.k, s.m), &payload, true)
		bt := sprinkle(rng, randMat(rng, s.k, s.n), &payload, false)
		got, want = seed.Clone(), seed.Clone()
		MatMulTransposeAAddInto(got, at, bt)
		orderedTAAddInto(want, at, bt)
		bitEqual(t, "MatMulTransposeAAddInto", got, want)

		ab := sprinkle(rng, randMat(rng, s.m, s.k), &payload, true)
		bb := sprinkle(rng, randMat(rng, s.n&^7, s.k), &payload, false)
		seed = sprinkle(rng, randMat(rng, s.m, s.n&^7), &payload, false)
		got, want = seed.Clone(), seed.Clone()
		MatMulTransposeBAddInto(got, ab, bb)
		orderedTBAddInto(want, ab, bb)
		bitEqual(t, "MatMulTransposeBAddInto", got, want)
	}
}
