package baselines

import (
	"github.com/sematype/pythagoras/internal/crf"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/lda"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

// SatoFeaturizer extends Sherlock with an LDA table-topic vector: every
// column of a table receives the topic distribution of the table's full
// token bag as an additional feature group — Sato's table context
// mechanism. With numeric-heavy tables this topic vector carries little
// signal (the paper's explanation for Sato's weakness on SportsTables),
// which emerges naturally here because numeric tokens dominate the bag.
type SatoFeaturizer struct {
	sherlock *SherlockFeaturizer
	topics   *TopicModel
}

// TopicModel wraps the trained LDA model with the table→bag conversion.
type TopicModel struct {
	lda *lda.Model
	enc *lm.Encoder
	k   int
}

// Name implements Featurizer.
func (s *SatoFeaturizer) Name() string { return "Sato" }

// Dim implements Featurizer.
func (s *SatoFeaturizer) Dim() int { return s.sherlock.Dim() + s.topics.k }

// Groups implements Featurizer: Sherlock's four groups plus the topic group.
func (s *SatoFeaturizer) Groups() []Group {
	groups := s.sherlock.Groups()
	base := s.sherlock.Dim()
	return append(groups, Group{Name: "topic", Lo: base, Hi: base + s.topics.k})
}

// FeaturizeTable implements Featurizer.
func (s *SatoFeaturizer) FeaturizeTable(t *table.Table) [][]float64 {
	cols := s.sherlock.FeaturizeTable(t)
	topic := s.topics.Infer(t)
	for i := range cols {
		cols[i] = append(cols[i], topic...)
	}
	return cols
}

// tableBag converts a table into the token bag LDA consumes: table name,
// headers excluded (consistent with §4.2), all values.
func tableBag(enc *lm.Encoder, t *table.Table) []string {
	var bag []string
	bag = append(bag, enc.Tokenize(t.Name)...)
	for _, c := range t.Columns {
		for _, v := range c.ValueStrings(20) {
			bag = append(bag, enc.Tokenize(v)...)
		}
	}
	return bag
}

// Infer returns the table's topic distribution.
func (tm *TopicModel) Infer(t *table.Table) []float64 {
	return tm.lda.Infer(tableBag(tm.enc, t), 20, 1)
}

// Sato is the trained tablewise model: a Model over the topic-aware
// featurizer plus a linear-chain CRF over each table's column sequence.
type Sato struct {
	*Model
	crf *crf.Model
}

// SatoOpts extends the shared training options with Sato-specific knobs.
type SatoOpts struct {
	TrainOpts
	Topics    int
	CRFEpochs int
	CRFRate   float64
}

// TrainSato trains the full Sato pipeline: LDA on the training tables, the
// per-column network, then the CRF transitions on training chains.
func TrainSato(c *data.Corpus, trainIdx, valIdx []int, enc *lm.Encoder, opts SatoOpts) (*Sato, error) {
	// 1. LDA on training tables only (no test leakage).
	docs := make([][]string, len(trainIdx))
	for i, ti := range trainIdx {
		docs[i] = tableBag(enc, c.Tables[ti])
	}
	ldaM, err := lda.Train(docs, lda.Config{Topics: opts.Topics, Iterations: 30, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	f := &SatoFeaturizer{
		sherlock: NewSherlockFeaturizer(enc),
		topics:   &TopicModel{lda: ldaM, enc: enc, k: opts.Topics},
	}

	// 2. Per-column classifier.
	m, train := trainModel(f, c, trainIdx, valIdx, opts.TrainOpts)

	// 3. CRF over column chains, using the trained unaries.
	model := crf.New(len(c.Types))
	logits := m.cls.Logits(train)
	for epoch := 0; epoch < opts.CRFEpochs; epoch++ {
		at := 0
		for at < len(train.TableOf) {
			end := at
			for end < len(train.TableOf) && train.TableOf[end] == train.TableOf[at] {
				end++
			}
			unary, labels := chainOf(logits, train.Y, at, end)
			if len(unary) > 0 {
				model.TrainStep(unary, labels, opts.CRFRate)
			}
			at = end
		}
	}
	return &Sato{Model: m, crf: model}, nil
}

// chainOf extracts the (unary, label) chain for columns [at, end), skipping
// unlabeled columns (they cannot participate in CRF training).
func chainOf(logits *tensor.Matrix, y []int, at, end int) ([][]float64, []int) {
	var unary [][]float64
	var labels []int
	for i := at; i < end; i++ {
		if y[i] < 0 {
			continue
		}
		unary = append(unary, logits.Row(i))
		labels = append(labels, y[i])
	}
	return unary, labels
}

// Evaluate scores Sato with Viterbi decoding per table.
func (m *Sato) Evaluate(c *data.Corpus, idx []int) (*eval.Split, []eval.Prediction) {
	d := BuildDataset(m.f, c, idx)
	logits := m.cls.Logits(d)
	var preds []eval.Prediction
	at := 0
	for at < len(d.TableOf) {
		end := at
		for end < len(d.TableOf) && d.TableOf[end] == d.TableOf[at] {
			end++
		}
		var unary [][]float64
		var rows []int
		for i := at; i < end; i++ {
			if d.Y[i] < 0 {
				continue
			}
			unary = append(unary, logits.Row(i))
			rows = append(rows, i)
		}
		if len(unary) > 0 {
			decoded := m.crf.Decode(unary)
			for k, i := range rows {
				preds = append(preds, eval.Prediction{
					True: d.Y[i], Pred: decoded[k], Numeric: d.Numeric[i],
				})
			}
		}
		at = end
	}
	return eval.ComputeSplit(preds), preds
}
