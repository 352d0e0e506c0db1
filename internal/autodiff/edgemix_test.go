package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/tensor"
)

// edgeMixAllRows is the oracle EdgeMix must match bit for bit: the op as it
// ran before it learned source rows, multiplying every node of h through w.
// It returns the forward value, then for the upstream gradient g
// accumulates ∂h into gh (which holds whatever other ops left there) and ∂w
// into gw.
func edgeMixAllRows(h, w, g, gh, gw *tensor.Matrix, src, dst []int, inv []float64) *tensor.Matrix {
	hw := tensor.New(h.Rows, w.Cols)
	tensor.MatMulInto(hw, h, w)
	val := tensor.New(h.Rows, w.Cols)
	for e, s := range src {
		drow := val.Row(dst[e])
		for j, v := range hw.Row(s) {
			drow[j] += v
		}
	}
	if inv != nil {
		tensor.ScaleRowsInto(val, val, inv)
	}

	ghw := tensor.New(h.Rows, w.Cols)
	for e, s := range src {
		sv := 1.0
		if inv != nil {
			sv = inv[dst[e]]
		}
		hrow := ghw.Row(s)
		for j, gv := range g.Row(dst[e]) {
			hrow[j] += sv * gv
		}
	}
	tensor.MatMulTransposeBAddInto(gh, ghw, w)
	tensor.MatMulTransposeAAddInto(gw, h, ghw)
	return val
}

func sameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, oracle %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestEdgeMixMatchesAllRows checks that EdgeMix over an edge type's
// distinct source rows (graph.SourceRows) computes the forward value, ∂h
// and ∂w of the all-rows op bit for bit. Another op's gradient reaches ∂h
// before EdgeMix's backward runs, as the self product and the other edge
// types' ops do in a GNN layer, so the order in which ∂h's sums are seeded
// and extended is part of what is checked.
func TestEdgeMixMatchesAllRows(t *testing.T) {
	const n, in, out = 9, 6, 5
	cases := []struct {
		name     string
		src, dst []int
	}{
		// Sources unsorted and repeated; nodes 0, 2, 5 and 7 have no
		// in-edges, and nodes 0, 4, 6 and 8 send nothing.
		{"edges", []int{7, 2, 7, 5, 2, 3, 7, 1}, []int{1, 3, 3, 4, 6, 6, 8, 8}},
		{"empty", nil, nil},
	}
	for _, c := range cases {
		for _, normalize := range []bool{true, false} {
			rng := rand.New(rand.NewSource(31))
			h, w, ws := randMat(rng, n, in), randMat(rng, in, out), randMat(rng, in, out)
			h.Data[4], h.Data[in+2] = 0, 0 // the kernels skip zero multipliers
			g := &graph.Graph{Types: make([]graph.NodeType, n)}
			g.Edges[0] = &graph.EdgeList{Src: c.src, Dst: c.dst}
			rows, pos := g.SourceRows(0)
			var inv []float64
			if normalize {
				inv = g.InvDegrees(0)
			}
			labels := make([]int, n)
			for i := range labels {
				labels[i] = i % out
			}

			tape := NewTape()
			vh, vw := tape.Param(h), tape.Param(w)
			mix := tape.EdgeMix(vh, vw, rows, pos, c.dst, n, inv)
			// Recorded after EdgeMix, so its backward writes ∂h first.
			self := tape.MatMul(vh, tape.Param(ws))
			tape.Backward(tape.SoftmaxCrossEntropy(tape.Add(mix, self), labels, nil))

			gh, gw := tensor.New(n, in), tensor.New(in, out)
			tensor.MatMulTransposeBAddInto(gh, self.Grad, ws)
			val := edgeMixAllRows(h, w, mix.Grad, gh, gw, c.src, c.dst, inv)
			name := c.name + "/inv"
			if !normalize {
				name = c.name + "/nil-inv"
			}
			t.Run(name, func(t *testing.T) {
				sameBits(t, "value", mix.Value, val)
				sameBits(t, "∂h", vh.Grad, gh)
				sameBits(t, "∂w", vw.Grad, gw)
			})
		}
	}
}
