// Package graph implements the paper's heterogeneous graph representation
// of tables (§2.1–2.2): node types V_tn (table name), V_nn (non-numerical
// column), V_n (numerical column) and V_ncf (numerical-column features),
// connected by three directed edge types that predefine how contextual
// information flows during GNN message passing:
//
//	green:  V_tn  → V_nn and V_tn → V_n   (table-name context)
//	yellow: V_nn  → V_n                   (non-numerical column context)
//	red:    V_ncf → V_n                   (statistical-feature injection)
//
// Graphs from multiple tables compose by disjoint union, which is how
// minibatches are formed.
package graph

import (
	"fmt"
	"sync"

	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/table"
)

// NodeType enumerates the four node types of the table graph.
type NodeType int

const (
	// NodeTableName is V_tn.
	NodeTableName NodeType = iota
	// NodeTextColumn is V_nn.
	NodeTextColumn
	// NodeNumericColumn is V_n.
	NodeNumericColumn
	// NodeNumericFeatures is V_ncf.
	NodeNumericFeatures
)

func (n NodeType) String() string {
	switch n {
	case NodeTableName:
		return "V_tn"
	case NodeTextColumn:
		return "V_nn"
	case NodeNumericColumn:
		return "V_n"
	case NodeNumericFeatures:
		return "V_ncf"
	}
	return fmt.Sprintf("NodeType(%d)", int(n))
}

// EdgeType enumerates the three directed edge types.
type EdgeType int

const (
	// EdgeTableName carries table-name context: V_tn → V_nn, V_tn → V_n.
	EdgeTableName EdgeType = iota
	// EdgeTextToNum carries non-numerical column context: V_nn → V_n.
	EdgeTextToNum
	// EdgeFeatToNum injects statistical features: V_ncf → V_n.
	EdgeFeatToNum
	// NumEdgeTypes is the count of edge types.
	NumEdgeTypes
)

func (e EdgeType) String() string {
	switch e {
	case EdgeTableName:
		return "tn→col"
	case EdgeTextToNum:
		return "nn→n"
	case EdgeFeatToNum:
		return "ncf→n"
	}
	return fmt.Sprintf("EdgeType(%d)", int(e))
}

// EdgeList holds the directed edges of one type in COO form.
type EdgeList struct {
	Src, Dst []int
}

// Len returns the number of edges.
func (e *EdgeList) Len() int { return len(e.Src) }

func (e *EdgeList) add(src, dst int) {
	e.Src = append(e.Src, src)
	e.Dst = append(e.Dst, dst)
}

// NodeMeta identifies what a node represents, for mapping predictions back
// to columns.
type NodeMeta struct {
	TableID string
	// ColIndex is the column's position in its table (-1 for V_tn).
	ColIndex int
	Kind     table.Kind // meaningful only for column nodes
}

// Graph is the (possibly batched) heterogeneous table graph.
type Graph struct {
	Types []NodeType
	Edges [NumEdgeTypes]*EdgeList
	// Texts holds the LM serialization per node ("" for V_ncf nodes).
	Texts []string
	// Feats holds the 192-feature vector per V_ncf node (nil otherwise).
	Feats [][]float64
	// Labels holds the semantic-type index of column nodes (-1 otherwise,
	// and -1 for column nodes whose type is absent from the vocabulary).
	Labels []int
	Meta   []NodeMeta

	// invDeg lazily caches InvDegrees per edge type: every GNN layer of
	// every step over the same graph reuses one slice instead of
	// recomputing (and re-allocating) the normalization. Guarded by
	// invOnce — safe under concurrent Apply calls sharing a graph.
	invOnce [NumEdgeTypes]sync.Once
	invDeg  [NumEdgeTypes][]float64

	// srcRows/srcPos lazily cache SourceRows per edge type, like invDeg.
	srcOnce [NumEdgeTypes]sync.Once
	srcRows [NumEdgeTypes][]int
	srcPos  [NumEdgeTypes][]int
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Types) }

// TargetNodes returns the indices of classification targets: every V_nn and
// V_n node (the paper predicts types for both).
func (g *Graph) TargetNodes() []int {
	var idx []int
	for i, t := range g.Types {
		if t == NodeTextColumn || t == NodeNumericColumn {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks the structural invariants of the graph representation.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.Texts) != n || len(g.Feats) != n || len(g.Labels) != n || len(g.Meta) != n {
		return fmt.Errorf("graph: parallel arrays out of sync (nodes=%d)", n)
	}
	for et := EdgeType(0); et < NumEdgeTypes; et++ {
		el := g.Edges[et]
		if el == nil {
			return fmt.Errorf("graph: missing edge list %v", et)
		}
		if len(el.Src) != len(el.Dst) {
			return fmt.Errorf("graph: %v src/dst length mismatch", et)
		}
		for i := range el.Src {
			s, d := el.Src[i], el.Dst[i]
			if s < 0 || s >= n || d < 0 || d >= n {
				return fmt.Errorf("graph: %v edge %d out of range", et, i)
			}
			if err := checkEdgeTypes(et, g.Types[s], g.Types[d]); err != nil {
				return fmt.Errorf("graph: edge %d: %w", i, err)
			}
		}
	}
	for i, t := range g.Types {
		switch t {
		case NodeNumericFeatures:
			if g.Feats[i] == nil {
				return fmt.Errorf("graph: V_ncf node %d missing features", i)
			}
		default:
			if g.Feats[i] != nil {
				return fmt.Errorf("graph: non-V_ncf node %d carries features", i)
			}
			if g.Texts[i] == "" {
				return fmt.Errorf("graph: LM node %d missing text", i)
			}
		}
	}
	return nil
}

func checkEdgeTypes(et EdgeType, src, dst NodeType) error {
	ok := false
	switch et {
	case EdgeTableName:
		ok = src == NodeTableName && (dst == NodeTextColumn || dst == NodeNumericColumn)
	case EdgeTextToNum:
		ok = src == NodeTextColumn && dst == NodeNumericColumn
	case EdgeFeatToNum:
		ok = src == NodeNumericFeatures && dst == NodeNumericColumn
	}
	if !ok {
		return fmt.Errorf("%v cannot connect %v→%v", et, src, dst)
	}
	return nil
}

// BuildOptions configures graph construction; the switches correspond
// one-to-one to the Table 4 ablation variants.
type BuildOptions struct {
	// DropTableName removes V_tn nodes ("w/o V_tn").
	DropTableName bool
	// DropTextColumns removes the V_nn→V_n edges, cutting non-numerical
	// context off from numerical columns ("w/o V_nn"). V_nn nodes remain
	// present (they are still prediction targets).
	DropTextColumns bool
	// DropNumericFeatures removes V_ncf nodes ("w/o V_ncf").
	DropNumericFeatures bool
	// Serialization controls header inclusion (Table 4 lower part).
	Serialization table.SerializeOptions
}

// Build converts one table into its heterogeneous graph. labelIndex maps
// semantic type strings to class indices; unseen types label as -1
// (excluded from loss and scoring).
func Build(t *table.Table, labelIndex map[string]int, opts BuildOptions) *Graph {
	nText := 0
	for _, c := range t.Columns {
		if c.Kind == table.KindText {
			nText++
		}
	}
	nNum := len(t.Columns) - nText
	nodes := len(t.Columns)
	if !opts.DropTableName {
		nodes++
	}
	if !opts.DropNumericFeatures {
		nodes += nNum
	}
	g := &Graph{
		Types:  make([]NodeType, 0, nodes),
		Texts:  make([]string, 0, nodes),
		Feats:  make([][]float64, 0, nodes),
		Labels: make([]int, 0, nodes),
		Meta:   make([]NodeMeta, 0, nodes),
	}
	var edges [NumEdgeTypes]int
	if !opts.DropTableName {
		edges[EdgeTableName] = nText + nNum
	}
	if !opts.DropTextColumns {
		edges[EdgeTextToNum] = nText * nNum
	}
	if !opts.DropNumericFeatures {
		edges[EdgeFeatToNum] = nNum
	}
	for et, n := range edges {
		g.Edges[et] = &EdgeList{Src: make([]int, 0, n), Dst: make([]int, 0, n)}
	}
	addNode := func(nt NodeType, text string, feats []float64, label int, meta NodeMeta) int {
		g.Types = append(g.Types, nt)
		g.Texts = append(g.Texts, text)
		g.Feats = append(g.Feats, feats)
		g.Labels = append(g.Labels, label)
		g.Meta = append(g.Meta, meta)
		return len(g.Types) - 1
	}
	lookup := func(st string) int {
		if idx, ok := labelIndex[st]; ok {
			return idx
		}
		return -1
	}

	tnNode := -1
	if !opts.DropTableName {
		tnNode = addNode(NodeTableName, table.SerializeTableName(t), nil, -1,
			NodeMeta{TableID: t.ID, ColIndex: -1})
	}

	// Every column's text renders into one reused buffer, numeric cells
	// straight from their values, so a column costs one string.
	var buf []byte
	textNodes := make([]int, 0, nText)
	numNodes := make([]int, 0, nNum)
	for ci, c := range t.Columns {
		buf = table.AppendColumn(buf[:0], c, opts.Serialization)
		label := lookup(c.SemanticType)
		meta := NodeMeta{TableID: t.ID, ColIndex: ci, Kind: c.Kind}
		if c.Kind == table.KindText {
			textNodes = append(textNodes, addNode(NodeTextColumn, string(buf), nil, label, meta))
		} else {
			numNodes = append(numNodes, addNode(NodeNumericColumn, string(buf), nil, label, meta))
		}
	}

	if !opts.DropNumericFeatures {
		// One backing array holds every V_ncf row of the table.
		feats := make([]float64, 0, nNum*features.Dim)
		for _, ni := range numNodes {
			ci := g.Meta[ni].ColIndex
			start := len(feats)
			feats = features.AppendNormalized(feats, t.Columns[ci].NumValues)
			ncf := addNode(NodeNumericFeatures, "", feats[start:len(feats):len(feats)], -1,
				NodeMeta{TableID: t.ID, ColIndex: ci, Kind: table.KindNumeric})
			g.Edges[EdgeFeatToNum].add(ncf, ni)
		}
	}

	if tnNode >= 0 {
		for _, n := range textNodes {
			g.Edges[EdgeTableName].add(tnNode, n)
		}
		for _, n := range numNodes {
			g.Edges[EdgeTableName].add(tnNode, n)
		}
	}
	if !opts.DropTextColumns {
		for _, src := range textNodes {
			for _, dst := range numNodes {
				g.Edges[EdgeTextToNum].add(src, dst)
			}
		}
	}
	return g
}

// Union returns the disjoint union of graphs — the batched graph fed to the
// GNN for a minibatch of tables.
func Union(graphs ...*Graph) *Graph {
	out := &Graph{}
	for et := EdgeType(0); et < NumEdgeTypes; et++ {
		out.Edges[et] = &EdgeList{}
	}
	offset := 0
	for _, g := range graphs {
		out.Types = append(out.Types, g.Types...)
		out.Texts = append(out.Texts, g.Texts...)
		out.Feats = append(out.Feats, g.Feats...)
		out.Labels = append(out.Labels, g.Labels...)
		out.Meta = append(out.Meta, g.Meta...)
		for et := EdgeType(0); et < NumEdgeTypes; et++ {
			el := g.Edges[et]
			for i := range el.Src {
				out.Edges[et].add(el.Src[i]+offset, el.Dst[i]+offset)
			}
		}
		offset += g.NumNodes()
	}
	return out
}

// InvDegrees returns, per node, 1/in-degree for the given edge type (0 for
// nodes with no incoming edges) — the mean-aggregation normalization the
// GNN applies every layer. The slice is computed once per graph and cached;
// callers must treat it as read-only. Safe for concurrent use.
func (g *Graph) InvDegrees(et EdgeType) []float64 {
	g.invOnce[et].Do(func() {
		inv := make([]float64, g.NumNodes())
		for _, d := range g.Edges[et].Dst {
			inv[d]++
		}
		for i, d := range inv {
			if d > 0 {
				inv[i] = 1 / d
			}
		}
		g.invDeg[et] = inv
	})
	return g.invDeg[et]
}

// SourceRows returns the distinct source nodes of the given edge type in
// ascending order (rows), and for each edge e the index of Src[e] in rows
// (pos) — the only node states the edge type's messages read, so the GNN
// multiplies those rows through W_r and no others. The slices are computed
// once per graph and cached; callers must treat them as read-only. Safe for
// concurrent use.
func (g *Graph) SourceRows(et EdgeType) (rows, pos []int) {
	g.srcOnce[et].Do(func() {
		src := g.Edges[et].Src
		// at[i] marks node i as a source, then holds its index in rows.
		at := make([]int, g.NumNodes())
		distinct := 0
		for _, s := range src {
			if at[s] == 0 {
				at[s] = 1
				distinct++
			}
		}
		rows := make([]int, 0, distinct)
		for i, seen := range at {
			if seen != 0 {
				at[i] = len(rows)
				rows = append(rows, i)
			}
		}
		pos := make([]int, len(src))
		for e, s := range src {
			pos[e] = at[s]
		}
		g.srcRows[et], g.srcPos[et] = rows, pos
	})
	return g.srcRows[et], g.srcPos[et]
}
