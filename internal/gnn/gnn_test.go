package gnn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/nn"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

func testGraph() *graph.Graph {
	tb := &table.Table{
		Name: "NBA Ply Stats",
		ID:   "t",
		Columns: []*table.Column{
			{Header: "Ply", SemanticType: "name", Kind: table.KindText, TextValues: []string{"a", "b"}},
			{Header: "PPG", SemanticType: "ppg", Kind: table.KindNumeric, NumValues: []float64{28, 15}},
			{Header: "APG", SemanticType: "apg", Kind: table.KindNumeric, NumValues: []float64{7, 2}},
		},
	}
	return graph.Build(tb, map[string]int{"name": 0, "ppg": 1, "apg": 2}, graph.BuildOptions{})
}

func randStates(rng *rand.Rand, n, d int) *tensor.Matrix {
	m := tensor.New(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestHeteroConvShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGraph()
	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", 8, 4, rng)
	tape := autodiff.NewTape()
	grads := nn.NewGradSet()
	h := tape.Constant(randStates(rng, g.NumNodes(), 8))
	out := hc.Apply(tape, grads, h, g, true)
	if r, c := out.Value.Rows, out.Value.Cols; r != g.NumNodes() || c != 4 {
		t.Fatalf("out = %dx%d, want %dx4", r, c, g.NumNodes())
	}
}

func TestHeteroConvParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := nn.NewParams()
	NewHeteroConv(p, "conv", 8, 4, rng)
	// 3 edge weights + self weight + bias
	if got := len(p.Names()); got != 5 {
		t.Fatalf("param matrices = %d, want 5", got)
	}
	want := 3*8*4 + 8*4 + 4
	if got := p.Count(); got != want {
		t.Fatalf("scalar params = %d, want %d", got, want)
	}
}

// nodesOfType returns the indices of g's nodes of type nt.
func nodesOfType(g *graph.Graph, nt graph.NodeType) []int {
	var idx []int
	for i, t := range g.Types {
		if t == nt {
			idx = append(idx, i)
		}
	}
	return idx
}

func TestMessagePassingDeliversContext(t *testing.T) {
	// Zero out all node states except one text column; after one conv, only
	// nodes reachable from it (the numeric columns) plus bias/self effects
	// change. With identity-free zero states the numeric columns must be the
	// only nodes receiving its message through the yellow edge.
	rng := rand.New(rand.NewSource(3))
	g := testGraph()
	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", 4, 4, rng)
	hc.Bias.Zero()

	textNode := nodesOfType(g, graph.NodeTextColumn)[0]
	states := tensor.New(g.NumNodes(), 4)
	for j := 0; j < 4; j++ {
		states.Set(textNode, j, 1)
	}

	tape := autodiff.NewTape()
	out := hc.Apply(tape, nn.NewGradSet(), tape.Constant(states), g, false)

	numNodes := nodesOfType(g, graph.NodeNumericColumn)
	for _, ni := range numNodes {
		var norm float64
		for j := 0; j < 4; j++ {
			norm += math.Abs(out.Value.At(ni, j))
		}
		if norm == 0 {
			t.Fatalf("numeric node %d received no message from text column", ni)
		}
	}
	// The table-name node has no in-edges and zero state → must stay zero.
	tn := nodesOfType(g, graph.NodeTableName)[0]
	for j := 0; j < 4; j++ {
		if out.Value.At(tn, j) != 0 {
			t.Fatal("table-name node received a message it should not")
		}
	}
}

func TestMeanAggregationNormalizes(t *testing.T) {
	// Two text columns each sending state s to one numeric node via the
	// same weights must aggregate to the same result as one sender with
	// state s (mean, not sum).
	rng := rand.New(rand.NewSource(4))
	mk := func(numText int) *graph.Graph {
		cols := []*table.Column{}
		for i := 0; i < numText; i++ {
			cols = append(cols, &table.Column{
				Header: "t", SemanticType: "x", Kind: table.KindText, TextValues: []string{"v"}})
		}
		cols = append(cols, &table.Column{
			Header: "n", SemanticType: "y", Kind: table.KindNumeric, NumValues: []float64{1}})
		tb := &table.Table{Name: "T", ID: "t", Columns: cols}
		return graph.Build(tb, map[string]int{"x": 0, "y": 1}, graph.BuildOptions{
			DropTableName: true, DropNumericFeatures: true,
		})
	}
	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", 3, 3, rng)
	hc.Bias.Zero()

	run := func(g *graph.Graph) []float64 {
		states := tensor.New(g.NumNodes(), 3)
		for _, tn := range nodesOfType(g, graph.NodeTextColumn) {
			for j := 0; j < 3; j++ {
				states.Set(tn, j, 2)
			}
		}
		tape := autodiff.NewTape()
		out := hc.Apply(tape, nn.NewGradSet(), tape.Constant(states), g, false)
		ni := nodesOfType(g, graph.NodeNumericColumn)[0]
		return append([]float64(nil), out.Value.Row(ni)...)
	}
	one := run(mk(1))
	three := run(mk(3))
	for j := range one {
		if math.Abs(one[j]-three[j]) > 1e-9 {
			t.Fatalf("mean aggregation broken: 1-sender=%v 3-sender=%v", one, three)
		}
	}
}

func TestHeteroConvGradientsFlowToAllWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testGraph()
	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", 6, 3, rng)
	tape := autodiff.NewTape()
	grads := nn.NewGradSet()
	h := tape.Constant(randStates(rng, g.NumNodes(), 6))
	out := hc.Apply(tape, grads, h, g, true)

	targets := g.TargetNodes()
	logits := tape.GatherRows(out, targets)
	labels := make([]int, len(targets))
	for i, n := range targets {
		labels[i] = g.Labels[n]
	}
	loss := tape.SoftmaxCrossEntropy(logits, labels, nil)
	tape.Backward(loss)

	for _, name := range p.Names() {
		if grads.Grad(name) == nil {
			t.Fatalf("no gradient reached %q", name)
		}
	}
}

func TestHeteroConvGradientCheck(t *testing.T) {
	// Finite-difference check of one edge weight through the full conv.
	rng := rand.New(rand.NewSource(6))
	g := testGraph()
	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", 4, 3, rng)
	states := randStates(rng, g.NumNodes(), 4)
	targets := g.TargetNodes()
	labels := make([]int, len(targets))
	for i, n := range targets {
		labels[i] = g.Labels[n]
	}

	lossOf := func() float64 {
		tape := autodiff.NewTape()
		out := hc.Apply(tape, nn.NewGradSet(), tape.Constant(states), g, true)
		logits := tape.GatherRows(out, targets)
		return tape.SoftmaxCrossEntropy(logits, labels, nil).Value.Data[0]
	}

	tape := autodiff.NewTape()
	grads := nn.NewGradSet()
	out := hc.Apply(tape, grads, tape.Constant(states), g, true)
	logits := tape.GatherRows(out, targets)
	loss := tape.SoftmaxCrossEntropy(logits, labels, nil)
	tape.Backward(loss)

	for _, name := range []string{"conv.edge1.w", "conv.self.w", "conv.b"} {
		w := p.Get(name)
		analytic := grads.Grad(name)
		if analytic == nil {
			t.Fatalf("no grad for %s", name)
		}
		const h = 1e-6
		for i := 0; i < len(w.Data); i += 5 { // spot-check every 5th element
			orig := w.Data[i]
			w.Data[i] = orig + h
			fp := lossOf()
			w.Data[i] = orig - h
			fm := lossOf()
			w.Data[i] = orig
			num := (fp - fm) / (2 * h)
			if math.Abs(num-analytic.Data[i]) > 1e-4*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic=%g numeric=%g", name, i, analytic.Data[i], num)
			}
		}
	}
}

func TestStackDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := nn.NewParams()
	s := NewStack(p, "gnn", []int{8, 8, 4}, rng)
	if len(s.Layers) != 2 {
		t.Fatalf("stack depth = %d, want 2", len(s.Layers))
	}
	g := testGraph()
	tape := autodiff.NewTape()
	out := s.Apply(tape, nn.NewGradSet(), tape.Constant(randStates(rng, g.NumNodes(), 8)), g, false)
	if c := out.Value.Cols; c != 4 {
		t.Fatalf("stack out dim = %d, want 4", c)
	}
}

func TestStackPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStack(nn.NewParams(), "gnn", []int{8}, rand.New(rand.NewSource(0)))
}

func TestEmptyEdgeTypesSkipped(t *testing.T) {
	// With all ablations on, the conv must still work (self-loop only).
	rng := rand.New(rand.NewSource(8))
	tb := &table.Table{Name: "T", ID: "t", Columns: []*table.Column{
		{Header: "n", SemanticType: "y", Kind: table.KindNumeric, NumValues: []float64{1, 2}},
	}}
	g := graph.Build(tb, map[string]int{"y": 0}, graph.BuildOptions{
		DropTableName: true, DropTextColumns: true, DropNumericFeatures: true,
	})
	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", 4, 4, rng)
	tape := autodiff.NewTape()
	out := hc.Apply(tape, nn.NewGradSet(), tape.Constant(randStates(rng, g.NumNodes(), 4)), g, true)
	for _, v := range out.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN from isolated-node conv")
		}
	}
}

func TestLearnsContextDependentLabels(t *testing.T) {
	// End-to-end micro-training: two tables, identical numeric columns,
	// different text-column content. Correct label depends solely on the
	// yellow-edge context — exactly the paper's motivating scenario. The
	// GNN must fit it; a context-free model cannot.
	rng := rand.New(rand.NewSource(9))
	mk := func(id, txt string, label string) *table.Table {
		return &table.Table{Name: "Stats", ID: id, Columns: []*table.Column{
			{Header: "ctx", SemanticType: "ctx." + txt, Kind: table.KindText, TextValues: []string{txt, txt}},
			{Header: "val", SemanticType: label, Kind: table.KindNumeric, NumValues: []float64{10, 20}},
		}}
	}
	labels := map[string]int{"ctx.basket": 0, "ctx.foot": 1, "ppg": 2, "ypg": 3}
	opts := graph.BuildOptions{DropTableName: true, DropNumericFeatures: true}
	g := graph.Union(graph.Build(mk("a", "basket", "ppg"), labels, opts), graph.Build(mk("b", "foot", "ypg"), labels, opts))

	// Initial states: text columns get distinct one-hot-ish states; numeric
	// columns identical states (values identical).
	d := 8
	states := tensor.New(g.NumNodes(), d)
	for i, m := range g.Meta {
		if g.Types[i] == graph.NodeTextColumn {
			if m.TableID == "a" {
				states.Set(i, 0, 1)
			} else {
				states.Set(i, 1, 1)
			}
		} else {
			states.Set(i, 2, 1) // identical numeric representation
		}
	}

	p := nn.NewParams()
	hc := NewHeteroConv(p, "conv", d, 4, rng)
	opt := nn.NewAdam(0.05)
	targets := g.TargetNodes()
	lab := make([]int, len(targets))
	for i, n := range targets {
		lab[i] = g.Labels[n]
	}

	var loss float64
	for epoch := 0; epoch < 200; epoch++ {
		tape := autodiff.NewTape()
		grads := nn.NewGradSet()
		out := hc.Apply(tape, grads, tape.Constant(states), g, false)
		logits := tape.GatherRows(out, targets)
		l := tape.SoftmaxCrossEntropy(logits, lab, nil)
		tape.Backward(l)
		opt.Step(p, grads)
		loss = l.Value.Data[0]
	}
	if loss > 0.1 {
		t.Fatalf("context-dependent task not learned, loss=%v", loss)
	}
}
