// Package gnn implements the heterogeneous graph convolutional module of
// Pythagoras (paper §3.1, Figure 3).
//
// The module combines one graph convolution (Kipf & Welling style) per edge
// type: for each edge type r, messages from source nodes pass through that
// type's learned weight matrix W_r and are mean-aggregated at the
// destination; the per-type aggregations are then summed together with a
// learned self-transformation W_n of the node's own state, plus a bias,
// followed by a ReLU. Each edge type learning its own W_r is what lets the
// model weight table-name context differently from non-numerical-column
// context and from the statistical features.
package gnn

import (
	"fmt"
	"math/rand"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/nn"
	"github.com/sematype/pythagoras/internal/tensor"
)

// HeteroConv is one heterogeneous graph convolution layer.
type HeteroConv struct {
	// The parameters' names in nn.Params, built once here rather than on
	// every forward.
	edgeName           [graph.NumEdgeTypes]string
	selfName, biasName string
	// EdgeW holds one learned weight matrix per edge type (W_tn, W_nn,
	// W_ncf in Figure 3).
	EdgeW [graph.NumEdgeTypes]*tensor.Matrix
	// SelfW is the node's own transformation (W_n in Figure 3).
	SelfW *tensor.Matrix
	Bias  *tensor.Matrix
}

// NewHeteroConv creates a layer mapping in-dim node states to out-dim
// states, registering parameters under prefix.
func NewHeteroConv(p *nn.Params, prefix string, in, out int, rng *rand.Rand) *HeteroConv {
	hc := &HeteroConv{selfName: prefix + ".self.w", biasName: prefix + ".b"}
	for et := graph.EdgeType(0); et < graph.NumEdgeTypes; et++ {
		w := tensor.New(in, out)
		nn.XavierInit(w, rng)
		hc.edgeName[et] = fmt.Sprintf("%s.edge%d.w", prefix, et)
		hc.EdgeW[et] = p.Add(hc.edgeName[et], w)
	}
	hc.SelfW = tensor.New(in, out)
	nn.XavierInit(hc.SelfW, rng)
	p.Add(hc.selfName, hc.SelfW)
	hc.Bias = p.Add(hc.biasName, tensor.New(1, out))
	return hc
}

// Apply runs the convolution over the batched graph g with node states h
// (NumNodes×in). It returns new node states (NumNodes×out). grads tracks
// the bound parameters for the optimizer; a nil grads runs in inference
// mode (parameters enter the tape as constants, no gradient bookkeeping).
// Pass activate=false to skip the final ReLU (e.g. for the last layer
// before the classifier).
func (hc *HeteroConv) Apply(t *autodiff.Tape, grads *nn.GradSet, h *autodiff.Var, g *graph.Graph, activate bool) *autodiff.Var {
	selfW := nn.ParamVar(t, grads, hc.selfName, hc.SelfW)
	out := t.MatMul(h, selfW)

	for et := graph.EdgeType(0); et < graph.NumEdgeTypes; et++ {
		el := g.Edges[et]
		if el.Len() == 0 {
			continue
		}
		w := nn.ParamVar(t, grads, hc.edgeName[et], hc.EdgeW[et])
		// Fused message passing: one h×W product over the edge type's
		// distinct source nodes (gather commutes with the
		// right-multiplication), scatter-aggregated and mean-normalized in a
		// single op — no message or aggregate temporaries. g caches both the
		// source rows and the inverse degrees per graph.
		rows, pos := g.SourceRows(et)
		out = t.Add(out, t.EdgeMix(h, w, rows, pos, el.Dst, g.NumNodes(), g.InvDegrees(et)))
	}

	bias := nn.ParamVar(t, grads, hc.biasName, hc.Bias)
	out = t.AddRow(out, bias)
	if activate {
		out = t.ReLU(out)
	}
	return out
}

// Stack is a sequence of HeteroConv layers with ReLU between them; the
// final layer's activation is configurable by the caller of Apply.
type Stack struct {
	Layers []*HeteroConv
}

// NewStack builds a stack of layers with the given widths, e.g. dims =
// [128, 128, 128] builds two 128→128 layers.
func NewStack(p *nn.Params, prefix string, dims []int, rng *rand.Rand) *Stack {
	if len(dims) < 2 {
		panic("gnn: Stack needs at least two dims")
	}
	s := &Stack{}
	for i := 0; i+1 < len(dims); i++ {
		s.Layers = append(s.Layers,
			NewHeteroConv(p, fmt.Sprintf("%s.conv%d", prefix, i), dims[i], dims[i+1], rng))
	}
	return s
}

// Apply runs all layers; activateLast controls the final layer's ReLU.
func (s *Stack) Apply(t *autodiff.Tape, grads *nn.GradSet, h *autodiff.Var, g *graph.Graph, activateLast bool) *autodiff.Var {
	for i, l := range s.Layers {
		activate := activateLast || i+1 < len(s.Layers)
		h = l.Apply(t, grads, h, g, activate)
	}
	return h
}
