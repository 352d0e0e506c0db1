package graph_test

import (
	"fmt"

	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/table"
)

// ExampleBuild converts the paper's Figure 1 table into its heterogeneous
// graph representation.
func ExampleBuild() {
	t := &table.Table{
		Name: "NBA Ply Stats",
		ID:   "fig1",
		Columns: []*table.Column{
			{Header: "Ply", SemanticType: "basketball.player.name", Kind: table.KindText,
				TextValues: []string{"Lebron James", "Myles Turner"}},
			{Header: "FPos", SemanticType: "basketball.player.position", Kind: table.KindText,
				TextValues: []string{"SF/PF", "PF/C"}},
			{Header: "PPG", SemanticType: "basketball.player.points_per_game", Kind: table.KindNumeric,
				NumValues: []float64{28.1, 15.2}},
			{Header: "AssPG", SemanticType: "basketball.player.assists_per_game", Kind: table.KindNumeric,
				NumValues: []float64{7.5, 2.1}},
		},
	}
	labels := map[string]int{
		"basketball.player.name":             0,
		"basketball.player.position":         1,
		"basketball.player.points_per_game":  2,
		"basketball.player.assists_per_game": 3,
	}

	g := graph.Build(t, labels, graph.BuildOptions{})
	count := map[graph.NodeType]int{}
	for _, nt := range g.Types {
		count[nt]++
	}
	fmt.Println("nodes:", g.NumNodes())
	fmt.Println("V_tn:", count[graph.NodeTableName])
	fmt.Println("V_nn:", count[graph.NodeTextColumn])
	fmt.Println("V_n:", count[graph.NodeNumericColumn])
	fmt.Println("V_ncf:", count[graph.NodeNumericFeatures])
	fmt.Println("green edges (tn→col):", g.Edges[graph.EdgeTableName].Len())
	fmt.Println("yellow edges (nn→n):", g.Edges[graph.EdgeTextToNum].Len())
	fmt.Println("red edges (ncf→n):", g.Edges[graph.EdgeFeatToNum].Len())
	// Output:
	// nodes: 7
	// V_tn: 1
	// V_nn: 2
	// V_n: 2
	// V_ncf: 2
	// green edges (tn→col): 4
	// yellow edges (nn→n): 4
	// red edges (ncf→n): 2
}
