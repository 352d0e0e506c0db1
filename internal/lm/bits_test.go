package lm

import (
	"math"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/table"
)

type bitConfig struct {
	name string
	cfg  Config
}

// bitConfigs are the encoder geometries the bit-level tests cover: the
// default, a MaxLen that truncates every column text, and the one-layer and
// one-head corners (with one layer, the final layer is the only layer).
func bitConfigs() []bitConfig {
	maxLen8, layers1, heads1 := DefaultConfig(), DefaultConfig(), DefaultConfig()
	maxLen8.MaxLen = 8
	layers1.Layers = 1
	heads1.Heads = 1
	return []bitConfig{
		{"default", DefaultConfig()},
		{"maxlen8", maxLen8},
		{"layers1", layers1},
		{"heads1", heads1},
	}
}

// bitTexts are the node texts the model actually encodes — the table-name
// and column serializations (with and without headers) of the first table
// from each corpus generator — plus the empty text and one text longer than
// any short MaxLen.
func bitTexts() []string {
	sports := data.GenerateSportsTables(data.SportsConfig{NumTables: 1, Seed: 17, MinRows: 4, MaxRows: 6, WeakNameProb: 0.12})
	git := data.GenerateGitTables(data.GitConfig{NumTables: 1, Seed: 23, MinRows: 4, MaxRows: 6, NameHintProb: 0.55, MinSupport: 1})
	texts := []string{"", strings.Repeat("points per game ", 12)}
	for _, t := range []*table.Table{sports.Tables[0], git.Tables[0]} {
		texts = append(texts, table.SerializeTableName(t))
		for _, c := range t.Columns {
			texts = append(texts,
				table.SerializeColumn(c, table.SerializeOptions{Header: table.HeaderNone}),
				table.SerializeColumn(c, table.SerializeOptions{Header: table.HeaderOriginal}))
		}
	}
	return texts
}

// TestEncodeMatchesEncodeTokensRow0 pins Encode to the CLS row of the full
// per-token pass on every platform: computing only row 0 of the final layer
// must not move a single bit.
func TestEncodeMatchesEncodeTokensRow0(t *testing.T) {
	texts := bitTexts()
	for _, bc := range bitConfigs() {
		e := NewEncoder(bc.cfg)
		for _, text := range texts {
			got := e.Encode(text)
			tokens := append([]string{TokenCLS}, e.Tokenize(text)...)
			want := e.EncodeTokens(append(tokens, TokenSEP)).Row(0)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s %q: Encode[%d] = %v, EncodeTokens row 0 has %v",
						bc.name, text, i, got[i], want[i])
				}
			}
		}
	}
}
