// Sportsanalytics reenacts the paper's Figure 1 scenario: a numerical
// column ('AssPG'-style assists per game) whose values alone are ambiguous
// across sports, disambiguated by the textual context the graph edges
// inject. The example trains one model, then probes it with the same
// numeric column wrapped in basketball context vs football context, and
// finally with all context stripped — showing the prediction flip live.
//
//	go run ./examples/sportsanalytics
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

func main() {
	corpus := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 160, Seed: 3, MinRows: 8, MaxRows: 14, WeakNameProb: 0.1,
	})
	enc := lm.NewEncoder(lm.Config{
		Dim: 64, Layers: 2, Heads: 4, FFNDim: 128, MaxLen: 512, Buckets: 1 << 14, Seed: 7,
	})
	rng := rand.New(rand.NewSource(1))
	train, val, _ := eval.TrainValTestSplit(len(corpus.Tables), rng)
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 100
	cfg.Logf = log.Printf
	model, err := core.TrainCtx(context.Background(), corpus, train, val, cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng := infer.New(model)

	// The ambiguous numeric column from Figure 1: per-game values around
	// 2–8 could be basketball assists, hockey stats, …
	assists := []float64{7.5, 2.1, 5.3, 3.8, 6.1, 1.9, 4.4, 2.8}

	basketball := &table.Table{
		Name: "NBA Ply Stats", ID: "fig1",
		Columns: []*table.Column{
			{Header: "Ply", Kind: table.KindText,
				TextValues: []string{"Lebron James", "Myles Turner", "Kai Novak", "Leo Rossi", "Omar Keita", "Tom Olsen", "Nico Weber", "Hugo Silva"}},
			{Header: "FPos", Kind: table.KindText,
				TextValues: []string{"SF/PF", "PF/C", "PG", "SG", "C", "SF", "PG/SG", "PF"}},
			{Header: "AssPG", Kind: table.KindNumeric, NumValues: assists},
		},
	}
	probe(eng, basketball, "same values, basketball context")

	soccer := &table.Table{
		Name: "EPL Player Statistics", ID: "fig1b",
		Columns: []*table.Column{
			{Header: "Player", Kind: table.KindText,
				TextValues: []string{"Marco Santos", "Diego Costa", "Jonas Moreau", "Felix Dubois", "Andre Olsen", "Liam Brown", "Noah Martin", "Ethan Kim"}},
			{Header: "Pos", Kind: table.KindText,
				TextValues: []string{"GK", "CB", "CM", "ST", "LW", "RW", "CDM", "CAM"}},
			{Header: "AssPG", Kind: table.KindNumeric, NumValues: assists},
		},
	}
	probe(eng, soccer, "identical values, soccer context")

	bare := &table.Table{
		Name: "Stats", ID: "fig1c",
		Columns: []*table.Column{
			{Header: "AssPG", Kind: table.KindNumeric, NumValues: assists},
		},
	}
	probe(eng, bare, "identical values, no context at all")
}

func probe(eng *infer.Engine, t *table.Table, caption string) {
	fmt.Printf("\n%s — table %q\n", caption, t.Name)
	batch, err := eng.PredictBatchCtx(context.Background(), []*table.Table{t})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range batch[0] {
		if p.Kind != table.KindNumeric {
			continue
		}
		fmt.Printf("  numeric column %-8s → %-45s (conf %.2f)\n", p.Header, p.Type, p.Confidence)
	}
}
