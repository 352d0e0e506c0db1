package graph

import (
	"strings"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/table"
)

func fig1Table() *table.Table {
	// The paper's Figure 1 / Figure 2a example: table name, two
	// non-numerical columns, three numerical columns.
	return &table.Table{
		Name: "NBA Ply Stats",
		ID:   "nba1",
		Columns: []*table.Column{
			{Header: "Ply", SemanticType: "basketball.player.name", Kind: table.KindText,
				TextValues: []string{"Lebron James", "Myles Turner"}},
			{Header: "FPos", SemanticType: "basketball.player.position", Kind: table.KindText,
				TextValues: []string{"SF/PF", "PF/C"}},
			{Header: "PPG", SemanticType: "basketball.player.points_per_game", Kind: table.KindNumeric,
				NumValues: []float64{28.1, 15.2}},
			{Header: "AssPG", SemanticType: "basketball.player.assists_per_game", Kind: table.KindNumeric,
				NumValues: []float64{7.5, 2.1}},
			{Header: "RebPG", SemanticType: "basketball.player.rebounds_per_game", Kind: table.KindNumeric,
				NumValues: []float64{8.0, 6.9}},
		},
	}
}

// nodesOfType returns the indices of g's nodes of type nt.
func nodesOfType(g *Graph, nt NodeType) []int {
	var idx []int
	for i, t := range g.Types {
		if t == nt {
			idx = append(idx, i)
		}
	}
	return idx
}

func labelIdx() map[string]int {
	return map[string]int{
		"basketball.player.name":              0,
		"basketball.player.position":          1,
		"basketball.player.points_per_game":   2,
		"basketball.player.assists_per_game":  3,
		"basketball.player.rebounds_per_game": 4,
	}
}

func TestBuildFigure2aStructure(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 V_tn + 2 V_nn + 3 V_n + 3 V_ncf = 9 nodes
	if g.NumNodes() != 9 {
		t.Fatalf("nodes = %d, want 9", g.NumNodes())
	}
	if got := len(nodesOfType(g, NodeTableName)); got != 1 {
		t.Fatalf("V_tn count = %d", got)
	}
	if got := len(nodesOfType(g, NodeTextColumn)); got != 2 {
		t.Fatalf("V_nn count = %d", got)
	}
	if got := len(nodesOfType(g, NodeNumericColumn)); got != 3 {
		t.Fatalf("V_n count = %d", got)
	}
	if got := len(nodesOfType(g, NodeNumericFeatures)); got != 3 {
		t.Fatalf("V_ncf count = %d", got)
	}
	// green edges: tn → every column node (5)
	if g.Edges[EdgeTableName].Len() != 5 {
		t.Fatalf("tn edges = %d, want 5", g.Edges[EdgeTableName].Len())
	}
	// yellow edges: each V_nn → each V_n (2×3)
	if g.Edges[EdgeTextToNum].Len() != 6 {
		t.Fatalf("nn→n edges = %d, want 6", g.Edges[EdgeTextToNum].Len())
	}
	// red edges: one per numeric column
	if g.Edges[EdgeFeatToNum].Len() != 3 {
		t.Fatalf("ncf→n edges = %d, want 3", g.Edges[EdgeFeatToNum].Len())
	}
}

func TestBuildLabelsAssigned(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	targets := g.TargetNodes()
	if len(targets) != 5 {
		t.Fatalf("targets = %d, want 5 (2 text + 3 numeric)", len(targets))
	}
	for _, n := range targets {
		if g.Labels[n] < 0 {
			t.Fatalf("target node %d unlabeled", n)
		}
	}
	// non-target nodes must be unlabeled
	for _, n := range nodesOfType(g, NodeTableName) {
		if g.Labels[n] != -1 {
			t.Fatal("V_tn must be unlabeled")
		}
	}
	for _, n := range nodesOfType(g, NodeNumericFeatures) {
		if g.Labels[n] != -1 {
			t.Fatal("V_ncf must be unlabeled")
		}
	}
}

func TestBuildUnknownTypeGetsMinusOne(t *testing.T) {
	g := Build(fig1Table(), map[string]int{}, BuildOptions{})
	for _, n := range g.TargetNodes() {
		if g.Labels[n] != -1 {
			t.Fatal("unknown semantic types must map to -1")
		}
	}
}

func TestBuildFeatureVectors(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	for _, n := range nodesOfType(g, NodeNumericFeatures) {
		if len(g.Feats[n]) != features.Dim {
			t.Fatalf("V_ncf feature dim = %d, want %d", len(g.Feats[n]), features.Dim)
		}
		if g.Texts[n] != "" {
			t.Fatal("V_ncf nodes carry no text")
		}
	}
}

func TestBuildSerializationExcludesHeaderByDefault(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	for _, n := range nodesOfType(g, NodeNumericColumn) {
		if strings.Contains(g.Texts[n], "PPG") || strings.Contains(g.Texts[n], "AssPG") {
			t.Fatalf("default serialization leaked header: %q", g.Texts[n])
		}
	}
}

func TestBuildWithOriginalHeaders(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{
		Serialization: table.SerializeOptions{Header: table.HeaderOriginal},
	})
	found := false
	for _, n := range nodesOfType(g, NodeNumericColumn) {
		if strings.Contains(g.Texts[n], "AssPG") {
			found = true
		}
	}
	if !found {
		t.Fatal("HeaderOriginal serialization missing header")
	}
}

func TestAblationDropTableName(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{DropTableName: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(nodesOfType(g, NodeTableName)) != 0 {
		t.Fatal("w/o V_tn still has table-name node")
	}
	if g.Edges[EdgeTableName].Len() != 0 {
		t.Fatal("w/o V_tn still has green edges")
	}
	// other context intact
	if g.Edges[EdgeTextToNum].Len() != 6 || g.Edges[EdgeFeatToNum].Len() != 3 {
		t.Fatal("other edges must remain")
	}
}

func TestAblationDropTextEdges(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{DropTextColumns: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges[EdgeTextToNum].Len() != 0 {
		t.Fatal("w/o V_nn still has yellow edges")
	}
	// V_nn nodes must remain: they are still prediction targets (paper
	// keeps them present, only the information flow is removed)
	if len(nodesOfType(g, NodeTextColumn)) != 2 {
		t.Fatal("V_nn nodes must remain present")
	}
}

func TestAblationDropNumericFeatures(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{DropNumericFeatures: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(nodesOfType(g, NodeNumericFeatures)) != 0 || g.Edges[EdgeFeatToNum].Len() != 0 {
		t.Fatal("w/o V_ncf still has feature nodes/edges")
	}
}

func TestAblationDropAllContext(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{
		DropTableName: true, DropTextColumns: true, DropNumericFeatures: true,
	})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for et := EdgeType(0); et < NumEdgeTypes; et++ {
		if g.Edges[et].Len() != 0 {
			t.Fatalf("edge type %v nonempty in full ablation", et)
		}
	}
	// isolated V_n/V_nn nodes remain → Dosolo-equivalent structure
	if len(g.TargetNodes()) != 5 {
		t.Fatal("targets must survive full ablation")
	}
}

func TestUnionOffsetsEdges(t *testing.T) {
	t1, t2 := fig1Table(), fig1Table()
	t2.ID = "nba2"
	g1 := Build(t1, labelIdx(), BuildOptions{})
	g2 := Build(t2, labelIdx(), BuildOptions{})
	u := Union(g1, g2)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != g1.NumNodes()+g2.NumNodes() {
		t.Fatal("union node count wrong")
	}
	// edges of the second graph must point at second-graph nodes
	el := u.Edges[EdgeTableName]
	half := g1.Edges[EdgeTableName].Len()
	for i := half; i < el.Len(); i++ {
		if el.Src[i] < g1.NumNodes() || el.Dst[i] < g1.NumNodes() {
			t.Fatal("union edge not offset")
		}
	}
	// metadata keeps table identity
	ids := map[string]bool{}
	for _, m := range u.Meta {
		ids[m.TableID] = true
	}
	if !ids["nba1"] || !ids["nba2"] {
		t.Fatal("union lost table identity")
	}
}

func TestBuildBatchEqualsUnionOfBuilds(t *testing.T) {
	t1, t2 := fig1Table(), fig1Table()
	t2.ID = "nba2"
	g1 := Build(t1, labelIdx(), BuildOptions{})
	g2 := Build(t2, labelIdx(), BuildOptions{})
	batch := Union(g1, g2)
	if batch.NumNodes() != g1.NumNodes()+g2.NumNodes() {
		t.Fatalf("batch has %d nodes, want %d", batch.NumNodes(), g1.NumNodes()+g2.NumNodes())
	}
	// The second table's edges are its own, shifted past the first table's
	// nodes; the first table's are untouched.
	off := g1.NumNodes()
	for et := EdgeType(0); et < NumEdgeTypes; et++ {
		a, b, u := g1.Edges[et], g2.Edges[et], batch.Edges[et]
		if u.Len() != a.Len()+b.Len() {
			t.Fatalf("edge type %v: %d edges, want %d", et, u.Len(), a.Len()+b.Len())
		}
		for i := range b.Src {
			if u.Src[a.Len()+i] != b.Src[i]+off || u.Dst[a.Len()+i] != b.Dst[i]+off {
				t.Fatalf("edge type %v edge %d not offset by %d", et, i, off)
			}
		}
	}
	if err := batch.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInDegrees(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	inv := g.InvDegrees(EdgeTextToNum)
	for _, n := range nodesOfType(g, NodeNumericColumn) {
		if inv[n] != 0.5 {
			t.Fatalf("numeric node inverse in-degree = %v, want 1/2", inv[n])
		}
	}
	for _, n := range nodesOfType(g, NodeTextColumn) {
		if inv[n] != 0 {
			t.Fatal("text node should have no yellow in-edges")
		}
	}
	if &g.InvDegrees(EdgeTextToNum)[0] != &inv[0] {
		t.Fatal("InvDegrees must cache its slice per edge type")
	}
}

// TestSourceRows checks the rows the GNN multiplies per edge type on a
// union of a full graph and one without V_tn: ascending and distinct, each
// edge's source at its pos, one row per distinct source, and cached.
func TestSourceRows(t *testing.T) {
	t2 := fig1Table()
	t2.ID = "nba2"
	g1 := Build(fig1Table(), labelIdx(), BuildOptions{})
	u := Union(g1, Build(t2, labelIdx(), BuildOptions{DropTableName: true}))
	for et := EdgeType(0); et < NumEdgeTypes; et++ {
		rows, pos := u.SourceRows(et)
		el := u.Edges[et]
		if len(pos) != el.Len() {
			t.Fatalf("%v: %d positions for %d edges", et, len(pos), el.Len())
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				t.Fatalf("%v: rows %v not ascending and distinct", et, rows)
			}
		}
		distinct := map[int]bool{}
		for e, s := range el.Src {
			if rows[pos[e]] != s {
				t.Fatalf("%v edge %d: rows[pos] = %d, source %d", et, e, rows[pos[e]], s)
			}
			distinct[s] = true
		}
		if len(rows) != len(distinct) {
			t.Fatalf("%v: %d rows for %d distinct sources", et, len(rows), len(distinct))
		}
		if again, _ := u.SourceRows(et); &again[0] != &rows[0] {
			t.Fatalf("%v: SourceRows must cache its slices per edge type", et)
		}
	}
	// Figure 2a: the one V_tn node feeds every column; the second table
	// has none.
	if rows, _ := u.SourceRows(EdgeTableName); len(rows) != 1 || u.Types[rows[0]] != NodeTableName {
		t.Fatalf("table-name source rows %v, want the first table's V_tn node", rows)
	}
	if rows, _ := Build(fig1Table(), labelIdx(), BuildOptions{DropTextColumns: true}).SourceRows(EdgeTextToNum); len(rows) != 0 {
		t.Fatalf("no V_nn→V_n edges but source rows %v", rows)
	}
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestCachesConcurrentReaders reads InvDegrees and SourceRows of every edge
// type from 8 goroutines at once, on one built graph and on a Union: each
// cache is filled once, and every reader gets the same slices. Run under
// -race via `make race`.
func TestCachesConcurrentReaders(t *testing.T) {
	t2 := fig1Table()
	t2.ID = "nba2"
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	u := Union(g, Build(t2, labelIdx(), BuildOptions{}))
	type view struct {
		inv       []float64
		rows, pos []int
	}
	const readers = 8
	for _, gr := range []*Graph{g, u} {
		var got [readers][NumEdgeTypes]view
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Readers start on different edge types, so the caches are
				// filled under contention from both accessors.
				for k := 0; k < int(NumEdgeTypes); k++ {
					et := EdgeType((k + r) % int(NumEdgeTypes))
					rows, pos := gr.SourceRows(et)
					got[r][et] = view{gr.InvDegrees(et), rows, pos}
				}
			}()
		}
		close(start)
		wg.Wait()
		for r := 1; r < readers; r++ {
			for et := EdgeType(0); et < NumEdgeTypes; et++ {
				a, b := got[0][et], got[r][et]
				if !sameSlice(a.inv, b.inv) || !sameSlice(a.rows, b.rows) || !sameSlice(a.pos, b.pos) {
					t.Fatalf("reader %d got other %v slices than reader 0", r, et)
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Build(fig1Table(), labelIdx(), BuildOptions{})
	g.Edges[EdgeTextToNum].Src[0] = 999
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range edge not caught")
	}

	g2 := Build(fig1Table(), labelIdx(), BuildOptions{})
	// wire a green edge backwards (column → table name)
	tn := nodesOfType(g2, NodeTableName)[0]
	nn := nodesOfType(g2, NodeTextColumn)[0]
	g2.Edges[EdgeTableName].add(nn, tn)
	if err := g2.Validate(); err == nil {
		t.Fatal("type-invalid edge not caught")
	}
}

func TestColumnOrderIndependence(t *testing.T) {
	// The paper emphasizes Pythagoras is independent of column order: a
	// permuted table must produce an isomorphic graph (same node-type
	// counts, same edge-type counts, same label multiset).
	tb := fig1Table()
	perm := &table.Table{Name: tb.Name, ID: tb.ID, Columns: []*table.Column{
		tb.Columns[3], tb.Columns[0], tb.Columns[4], tb.Columns[1], tb.Columns[2],
	}}
	g1 := Build(tb, labelIdx(), BuildOptions{})
	g2 := Build(perm, labelIdx(), BuildOptions{})
	for et := EdgeType(0); et < NumEdgeTypes; et++ {
		if g1.Edges[et].Len() != g2.Edges[et].Len() {
			t.Fatalf("edge count %v changed under permutation", et)
		}
	}
	count := func(g *Graph) map[int]int {
		m := map[int]int{}
		for _, l := range g.Labels {
			m[l]++
		}
		return m
	}
	c1, c2 := count(g1), count(g2)
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatal("label multiset changed under permutation")
		}
	}
}
