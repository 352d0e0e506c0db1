package baselines

import (
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// DosoloFeaturizer reproduces Dosolo [26]: each column is serialized to
// "[CLS] v1 v2 … [SEP]", encoded by the frozen LM, and the CLS vector alone
// feeds the classification head. No table context of any kind — the
// columnwise lower bound the paper's ablation "w/o V_tn, V_nn, V_ncf"
// collapses to.
type DosoloFeaturizer struct {
	enc *lm.Encoder
}

// NewDosoloFeaturizer returns the featurizer.
func NewDosoloFeaturizer(enc *lm.Encoder) *DosoloFeaturizer {
	return &DosoloFeaturizer{enc: enc}
}

// Name implements Featurizer.
func (d *DosoloFeaturizer) Name() string { return "Dosolo" }

// Dim implements Featurizer.
func (d *DosoloFeaturizer) Dim() int { return d.enc.Dim() }

// Groups implements Featurizer.
func (d *DosoloFeaturizer) Groups() []Group { return wholeGroup(d.Dim()) }

// FeaturizeTable implements Featurizer.
func (d *DosoloFeaturizer) FeaturizeTable(t *table.Table) [][]float64 {
	out := make([][]float64, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = widenF32(d.enc.Encode(table.SerializeColumn(c, table.SerializeOptions{})))
	}
	return out
}

// TrainDosolo trains Dosolo on the corpus splits.
func TrainDosolo(c *data.Corpus, trainIdx, valIdx []int, enc *lm.Encoder, opts TrainOpts) *Model {
	m, _ := trainModel(NewDosoloFeaturizer(enc), c, trainIdx, valIdx, opts)
	return m
}
