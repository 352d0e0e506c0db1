package baselines

import (
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// DoduoFeaturizer reproduces Doduo [26]: the entire table is serialized
// into ONE token sequence — "[CLS] col1-values [SEP] col2-values [SEP] …"
// — encoded jointly by the frozen LM, and each column is represented by the
// mean of its own token span's contextualized states. Context arrives
// through the joint encoding, but the LM's hard 512-token budget must be
// shared across all columns: wide tables (SportsTables averages ~21
// columns) leave only a handful of values per column — the truncation
// weakness the paper analyzes.
type DoduoFeaturizer struct {
	enc *lm.Encoder
	// MaxTokens is the sequence budget (the paper's 512).
	MaxTokens int
}

// NewDoduoFeaturizer returns the featurizer with the paper's 512 budget.
func NewDoduoFeaturizer(enc *lm.Encoder) *DoduoFeaturizer {
	return &DoduoFeaturizer{enc: enc, MaxTokens: 512}
}

// Name implements Featurizer.
func (d *DoduoFeaturizer) Name() string { return "Doduo" }

// Dim implements Featurizer.
func (d *DoduoFeaturizer) Dim() int { return d.enc.Dim() }

// Groups implements Featurizer.
func (d *DoduoFeaturizer) Groups() []Group { return wholeGroup(d.Dim()) }

// FeaturizeTable implements Featurizer: joint encoding with span pooling.
func (d *DoduoFeaturizer) FeaturizeTable(t *table.Table) [][]float64 {
	nCols := len(t.Columns)
	out := make([][]float64, nCols)
	for i := range out {
		out[i] = make([]float64, d.enc.Dim())
	}
	if nCols == 0 {
		return out
	}
	// Per-column token allowance under the shared budget: reserve [CLS] and
	// one [SEP] per column.
	budget := d.MaxTokens - 1 - nCols
	if budget < nCols {
		budget = nCols
	}
	perCol := budget / nCols
	if perCol < 1 {
		perCol = 1
	}

	tokens := []string{lm.TokenCLS}
	spans := make([][2]int, nCols)
	for i, c := range t.Columns {
		start := len(tokens)
		count := 0
		for _, v := range c.ValueStrings(0) {
			for _, tok := range d.enc.Tokenize(v) {
				if count >= perCol {
					break
				}
				tokens = append(tokens, tok)
				count++
			}
			if count >= perCol {
				break
			}
		}
		if count == 0 { // guarantee a span
			tokens = append(tokens, lm.TokenPAD)
			count = 1
		}
		spans[i] = [2]int{start, start + count}
		tokens = append(tokens, lm.TokenSEP)
	}

	states := d.enc.EncodeTokens(tokens)
	for i, sp := range spans {
		lo, hi := sp[0], sp[1]
		if hi > states.Rows {
			hi = states.Rows
		}
		if lo >= hi {
			continue
		}
		vec := out[i]
		for r := lo; r < hi; r++ {
			row := states.Row(r)
			for j := range vec {
				vec[j] += float64(row[j])
			}
		}
		inv := 1 / float64(hi-lo)
		for j := range vec {
			vec[j] *= inv
		}
	}
	return out
}

// TrainDoduo trains Doduo on the corpus splits.
func TrainDoduo(c *data.Corpus, trainIdx, valIdx []int, enc *lm.Encoder, opts TrainOpts) *Model {
	m, _ := trainModel(NewDoduoFeaturizer(enc), c, trainIdx, valIdx, opts)
	return m
}
