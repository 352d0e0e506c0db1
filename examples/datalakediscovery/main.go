// Datalakediscovery shows the downstream task the paper motivates: dataset
// discovery over an enterprise-style lake. It types every column of a
// GitTables-style lake with a trained Pythagoras model, builds an inverted
// semantic-type index, and answers discovery queries ("which tables contain
// prices and ratings?") against it.
//
//	go run ./examples/datalakediscovery
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

func main() {
	// The "enterprise lake": heavy on numeric columns, long-tailed types,
	// filename-ish table names.
	lake := data.GenerateGitTables(data.GitConfig{
		NumTables: 200, Seed: 9, MinRows: 8, MaxRows: 16, NameHintProb: 0.55, MinSupport: 3,
	})
	fmt.Printf("lake: %s\n", lake.ComputeStats())

	enc := lm.NewEncoder(lm.Config{
		Dim: 64, Layers: 2, Heads: 4, FFNDim: 128, MaxLen: 512, Buckets: 1 << 14, Seed: 7,
	})
	rng := rand.New(rand.NewSource(1))
	train, val, rest := eval.TrainValTestSplit(len(lake.Tables), rng)
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 80
	cfg.Logf = log.Printf
	model, err := core.TrainCtx(context.Background(), lake, train, val, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Type the untyped part of the lake in one batch and build the
	// discovery index: semantic type → tables containing a column of that
	// type.
	untyped := make([]*table.Table, len(rest))
	for i, ti := range rest {
		untyped[i] = lake.Tables[ti]
	}
	batch, err := infer.New(model).PredictBatchCtx(context.Background(), untyped)
	if err != nil {
		log.Fatal(err)
	}
	index := map[string][]string{}
	for i, t := range untyped {
		for _, p := range batch[i] {
			if p.Confidence < 0.3 {
				continue // low-confidence labels pollute discovery indexes
			}
			index[p.Type] = append(index[p.Type], t.ID)
		}
	}
	fmt.Printf("\nindexed %d tables under %d distinct semantic types\n", len(rest), len(index))

	// Discovery queries: find tables that contain ALL requested types.
	queries := [][]string{
		{"dbpedia/price", "dbpedia/rating"},
		{"dbpedia/latitude", "dbpedia/longitude"},
		{"dbpedia/year", "dbpedia/count"},
	}
	for _, q := range queries {
		hits := intersect(index, q)
		fmt.Printf("\nquery: tables with {%s}\n", strings.Join(q, ", "))
		if len(hits) == 0 {
			fmt.Println("  no matches")
			continue
		}
		if len(hits) > 5 {
			hits = hits[:5]
		}
		for _, id := range hits {
			fmt.Printf("  %s\n", id)
		}
	}
}

// intersect returns table ids present under every queried type, sorted.
func intersect(index map[string][]string, types []string) []string {
	if len(types) == 0 {
		return nil
	}
	count := map[string]int{}
	for _, st := range types {
		seen := map[string]bool{}
		for _, id := range index[st] {
			if !seen[id] {
				seen[id] = true
				count[id]++
			}
		}
	}
	var out []string
	for id, c := range count {
		if c == len(types) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
