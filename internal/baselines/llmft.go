package baselines

import (
	"strings"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// LLMFeaturizer simulates the paper's fine-tuned GPT-3.5 baseline (see
// DESIGN.md §2 for the substitution). The original baseline serializes each
// column into a natural-language prompt (table name + column values,
// truncated to the prompt budget) and fine-tunes a generic LLM to emit the
// type string. Our simulator reproduces its decisive properties:
//
//   - prompt-style input: one flat text per column, no architectural path
//     for typed context (the table name is just more prompt text);
//   - a shallow adapter head over the frozen encoder (fine-tuning a
//     generic model adapts a thin slice of capacity to the task);
//   - a flat label space in which rare fine-grained types get almost no
//     gradient signal — the source of the paper's very low macro F1 for
//     this baseline.
type LLMFeaturizer struct {
	enc *lm.Encoder
	// PromptTokens caps the serialized prompt length.
	PromptTokens int
}

// NewLLMFeaturizer returns the simulator's featurizer.
func NewLLMFeaturizer(enc *lm.Encoder) *LLMFeaturizer {
	return &LLMFeaturizer{enc: enc, PromptTokens: 128}
}

// Name implements Featurizer.
func (f *LLMFeaturizer) Name() string { return "GPT-3 (fine-tuned)" }

// Dim implements Featurizer.
func (f *LLMFeaturizer) Dim() int { return f.enc.Dim() }

// Groups implements Featurizer.
func (f *LLMFeaturizer) Groups() []Group { return wholeGroup(f.Dim()) }

// FeaturizeTable implements Featurizer: one prompt per column.
func (f *LLMFeaturizer) FeaturizeTable(t *table.Table) [][]float64 {
	out := make([][]float64, len(t.Columns))
	for i, c := range t.Columns {
		prompt := f.buildPrompt(t, c)
		out[i] = widenF32(f.enc.Encode(prompt))
	}
	return out
}

// buildPrompt mirrors the instruction-style serialization used for LLM
// fine-tuning: task phrasing, table name, then the column's values.
func (f *LLMFeaturizer) buildPrompt(t *table.Table, c *table.Column) string {
	var sb strings.Builder
	sb.WriteString("classify the semantic type of this column . table ")
	sb.WriteString(t.Name)
	sb.WriteString(" . values ")
	count := 0
	for _, v := range c.ValueStrings(0) {
		toks := f.enc.Tokenize(v)
		if count+len(toks) > f.PromptTokens {
			break
		}
		sb.WriteByte(' ')
		sb.WriteString(v)
		count += len(toks)
	}
	return sb.String()
}

// TrainLLM trains the simulator. The adapter is a single linear layer
// (Hidden=0) regardless of opts.Hidden — fine-tuning adapts a thin head,
// not the backbone.
func TrainLLM(c *data.Corpus, trainIdx, valIdx []int, enc *lm.Encoder, opts TrainOpts) *Model {
	opts.Hidden = 0
	m, _ := trainModel(NewLLMFeaturizer(enc), c, trainIdx, valIdx, opts)
	return m
}
