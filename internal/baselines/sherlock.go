package baselines

import (
	"math"

	"github.com/sematype/pythagoras/internal/colfeat"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// SherlockFeaturizer reproduces Sherlock's columnwise multi-group features:
// character distributions, aggregated word embeddings, a whole-column text
// embedding (the paragraph-vector stand-in), and global statistics
// (including the 192 numeric statistics for numerical columns). No
// information from outside the column is used.
type SherlockFeaturizer struct {
	enc *lm.Encoder
}

// NewSherlockFeaturizer builds the featurizer around the shared frozen
// encoder (used for its token/word embeddings).
func NewSherlockFeaturizer(enc *lm.Encoder) *SherlockFeaturizer {
	return &SherlockFeaturizer{enc: enc}
}

// charFeatureDim is the width of the character-distribution group (see
// colfeat.CharProfile).
const charFeatureDim = colfeat.CharProfileDim

// globalStatsDim is the width of the global-statistics group: the 192
// numeric statistics plus 8 column-level aggregates shared by both kinds.
const globalStatsDim = features.Dim + 8

// Name implements Featurizer.
func (s *SherlockFeaturizer) Name() string { return "Sherlock" }

// Dim implements Featurizer.
func (s *SherlockFeaturizer) Dim() int {
	return charFeatureDim + s.enc.Dim() + s.enc.Dim() + globalStatsDim
}

// Groups implements Featurizer: the four Sherlock subnetwork groups.
func (s *SherlockFeaturizer) Groups() []Group {
	d := s.enc.Dim()
	return []Group{
		{Name: "char", Lo: 0, Hi: charFeatureDim},
		{Name: "word", Lo: charFeatureDim, Hi: charFeatureDim + d},
		{Name: "par", Lo: charFeatureDim + d, Hi: charFeatureDim + 2*d},
		{Name: "stats", Lo: charFeatureDim + 2*d, Hi: charFeatureDim + 2*d + globalStatsDim},
	}
}

// FeaturizeTable implements Featurizer; each column is featurized in
// isolation.
func (s *SherlockFeaturizer) FeaturizeTable(t *table.Table) [][]float64 {
	out := make([][]float64, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = s.featurizeColumn(c)
	}
	return out
}

func (s *SherlockFeaturizer) featurizeColumn(c *table.Column) []float64 {
	vals := c.ValueStrings(0)
	vec := make([]float64, 0, s.Dim())
	vec = append(vec, colfeat.CharProfile(vals)...)
	vec = append(vec, s.wordEmbedding(vals)...)
	vec = append(vec, widenF32(s.enc.Encode(table.SerializeColumn(c, table.SerializeOptions{})))...)
	vec = append(vec, globalStats(c, vals)...)
	return vec
}

// wordEmbedding mean-pools the frozen token embeddings of all values.
func (s *SherlockFeaturizer) wordEmbedding(vals []string) []float64 {
	dim := s.enc.Dim()
	out := make([]float64, dim)
	count := 0
	for _, v := range vals {
		for _, tok := range s.enc.Tokenize(v) {
			emb := s.enc.TokenEmbedding(tok)
			for i, x := range emb {
				out[i] += float64(x)
			}
			count++
		}
	}
	if count > 0 {
		inv := 1 / float64(count)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// globalStats computes the statistics group: the 192 numeric features (zero
// for text columns) plus kind-agnostic aggregates.
func globalStats(c *table.Column, vals []string) []float64 {
	out := make([]float64, globalStatsDim)
	if c.Kind == table.KindNumeric {
		copy(out, features.ExtractNormalized(c.NumValues))
	}
	base := features.Dim
	n := float64(len(vals))
	out[base] = math.Log1p(n)
	distinct := map[string]struct{}{}
	var empty float64
	for _, v := range vals {
		distinct[v] = struct{}{}
		if v == "" {
			empty++
		}
	}
	if n > 0 {
		out[base+1] = float64(len(distinct)) / n
		out[base+2] = empty / n
	}
	if c.Kind == table.KindNumeric {
		out[base+3] = 1
	}
	var lenSum float64
	for _, v := range vals {
		lenSum += float64(len(v))
	}
	if n > 0 {
		out[base+4] = lenSum / n
	}
	out[base+5] = boolTo(len(distinct) == len(vals) && len(vals) > 0)
	out[base+6] = boolTo(len(distinct) == 1 && len(vals) > 0)
	out[base+7] = math.Log1p(float64(len(distinct)))
	return out
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TrainSherlock trains Sherlock on the corpus splits.
func TrainSherlock(c *data.Corpus, trainIdx, valIdx []int, enc *lm.Encoder, opts TrainOpts) *Model {
	m, _ := trainModel(NewSherlockFeaturizer(enc), c, trainIdx, valIdx, opts)
	return m
}
