package baselines

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/colfeat"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

func testEncoder() *lm.Encoder {
	return lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
}

func testCorpus(n int) *data.Corpus {
	return data.GenerateSportsTables(data.SportsConfig{
		NumTables: n, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
	})
}

// quickOpts is the shared §4.2 training protocol at a test budget.
func quickOpts() TrainOpts {
	return TrainOpts{
		SubDim: 64, Hidden: 128, LearningRate: 1e-2, Epochs: 15,
		BatchSize: 256, Patience: 15, Seed: 1, Dropout: 0.1,
	}
}

func TestSherlockFeaturizerShapes(t *testing.T) {
	enc := testEncoder()
	f := NewSherlockFeaturizer(enc)
	c := testCorpus(3)
	for _, tb := range c.Tables {
		vecs := f.FeaturizeTable(tb)
		if len(vecs) != len(tb.Columns) {
			t.Fatalf("vectors = %d, columns = %d", len(vecs), len(tb.Columns))
		}
		for _, v := range vecs {
			if len(v) != f.Dim() {
				t.Fatalf("vector dim = %d, want %d", len(v), f.Dim())
			}
		}
	}
	groups := f.Groups()
	if len(groups) != 4 {
		t.Fatalf("sherlock groups = %d, want 4", len(groups))
	}
	if groups[3].Hi != f.Dim() {
		t.Fatal("groups must tile the feature vector")
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Lo != groups[i-1].Hi {
			t.Fatal("groups must be contiguous")
		}
	}
}

func TestCharFeaturesBasics(t *testing.T) {
	out := colfeat.CharProfile([]string{"abc", "ABC", "123"})
	if len(out) != charFeatureDim {
		t.Fatalf("char features dim = %d", len(out))
	}
	// 'a' appears twice (a and A) of 9 chars total
	if out[0] != 2.0/9 {
		t.Fatalf("freq(a) = %v", out[0])
	}
	if out[26+1] != 1.0/9 { // digit '1'
		t.Fatalf("freq(1) = %v", out[27])
	}
	empty := colfeat.CharProfile(nil)
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty input must produce zeros")
		}
	}
}

func TestGlobalStatsNumericVsText(t *testing.T) {
	num := &table.Column{Kind: table.KindNumeric, NumValues: []float64{1, 2, 3}}
	txt := &table.Column{Kind: table.KindText, TextValues: []string{"a", "b", "b"}}
	gn := globalStats(num, num.ValueStrings(0))
	gt := globalStats(txt, txt.ValueStrings(0))
	if len(gn) != globalStatsDim || len(gt) != globalStatsDim {
		t.Fatal("global stats dim wrong")
	}
	// numeric flag
	if gn[192+3] != 1 || gt[192+3] != 0 {
		t.Fatal("numeric flag wrong")
	}
	// text column's numeric-feature block must be zero
	for i := 0; i < 192; i++ {
		if gt[i] != 0 {
			t.Fatal("text column has nonzero numeric features")
		}
	}
}

func TestBuildDatasetStructure(t *testing.T) {
	enc := testEncoder()
	c := testCorpus(4)
	f := NewDosoloFeaturizer(enc)
	d := BuildDataset(f, c, []int{0, 1, 2, 3})
	totalCols := 0
	for _, tb := range c.Tables[:4] {
		totalCols += len(tb.Columns)
	}
	if d.X.Rows != totalCols || len(d.Y) != totalCols {
		t.Fatalf("dataset rows = %d, want %d", d.X.Rows, totalCols)
	}
	// TableOf must be nondecreasing and contiguous
	for i := 1; i < len(d.TableOf); i++ {
		if d.TableOf[i] < d.TableOf[i-1] {
			t.Fatal("TableOf not grouped")
		}
	}
	for _, y := range d.Y {
		if y < 0 {
			t.Fatal("all corpus labels must resolve")
		}
	}
}

func TestAllBaselinesLearnAboveChance(t *testing.T) {
	c := testCorpus(60)
	enc := testEncoder()
	rng := rand.New(rand.NewSource(1))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)
	opts := quickOpts()

	type result struct {
		name string
		f1   float64
	}
	var results []result

	sher := TrainSherlock(c, train, val, enc, opts)
	s, _ := sher.Evaluate(c, test)
	results = append(results, result{"Sherlock", s.Overall.WeightedF1})

	sato, err := TrainSato(c, train, val, enc, SatoOpts{TrainOpts: opts, Topics: 8, CRFEpochs: 2, CRFRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s, _ = sato.Evaluate(c, test)
	results = append(results, result{"Sato", s.Overall.WeightedF1})

	doso := TrainDosolo(c, train, val, enc, opts)
	s, _ = doso.Evaluate(c, test)
	results = append(results, result{"Dosolo", s.Overall.WeightedF1})

	dodu := TrainDoduo(c, train, val, enc, opts)
	s, _ = dodu.Evaluate(c, test)
	results = append(results, result{"Doduo", s.Overall.WeightedF1})

	llm := TrainLLM(c, train, val, enc, opts)
	s, _ = llm.Evaluate(c, test)
	results = append(results, result{"GPT-3 (fine-tuned)", s.Overall.WeightedF1})

	for _, r := range results {
		t.Logf("%-20s weighted F1 = %.3f", r.name, r.f1)
		// chance over ~126 classes ≈ 0.008
		if r.f1 < 0.05 {
			t.Errorf("%s did not learn (F1 %.3f)", r.name, r.f1)
		}
	}
}

func TestDoduoBudgetSharedAcrossColumns(t *testing.T) {
	enc := testEncoder()
	f := NewDoduoFeaturizer(enc)
	f.MaxTokens = 32
	// wide table: 15 columns, budget leaves ~1 token per column
	cols := make([]*table.Column, 15)
	for i := range cols {
		cols[i] = &table.Column{
			Header: "c", SemanticType: "t", Kind: table.KindNumeric,
			NumValues: []float64{1, 2, 3, 4, 5, 6, 7, 8},
		}
	}
	tb := &table.Table{Name: "T", ID: "t", Columns: cols}
	vecs := f.FeaturizeTable(tb)
	if len(vecs) != 15 {
		t.Fatal("vector count")
	}
	for _, v := range vecs {
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		if norm == 0 {
			t.Fatal("column got no representation under tight budget")
		}
	}
}

func TestDoduoEmptyTable(t *testing.T) {
	enc := testEncoder()
	f := NewDoduoFeaturizer(enc)
	vecs := f.FeaturizeTable(&table.Table{Name: "T", ID: "t"})
	if len(vecs) != 0 {
		t.Fatal("empty table must produce no vectors")
	}
}

func TestLLMPromptIncludesTableNameAndValues(t *testing.T) {
	enc := testEncoder()
	f := NewLLMFeaturizer(enc)
	tb := &table.Table{Name: "NBA Player Stats", ID: "t", Columns: []*table.Column{
		{Header: "h", SemanticType: "x", Kind: table.KindNumeric, NumValues: []float64{7.5}},
	}}
	prompt := f.buildPrompt(tb, tb.Columns[0])
	if !contains(prompt, "NBA Player Stats") || !contains(prompt, "7.5") {
		t.Fatalf("prompt = %q", prompt)
	}
}

func TestLLMPromptRespectsBudget(t *testing.T) {
	enc := testEncoder()
	f := NewLLMFeaturizer(enc)
	f.PromptTokens = 5
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	tb := &table.Table{Name: "T", ID: "t", Columns: []*table.Column{
		{Header: "h", SemanticType: "x", Kind: table.KindNumeric, NumValues: vals},
	}}
	prompt := f.buildPrompt(tb, tb.Columns[0])
	if len(enc.Tokenize(prompt)) > 30 {
		t.Fatalf("prompt not truncated: %d tokens", len(enc.Tokenize(prompt)))
	}
}

func TestSatoTopicGroupAppended(t *testing.T) {
	enc := testEncoder()
	c := testCorpus(8)
	sato, err := TrainSato(c, []int{0, 1, 2, 3}, []int{4, 5}, enc,
		SatoOpts{TrainOpts: quickOpts(), Topics: 4, CRFEpochs: 1, CRFRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sato.f.Groups()); got != 5 {
		t.Fatalf("sato groups = %d, want 5", got)
	}
	vecs := sato.f.FeaturizeTable(c.Tables[6])
	if len(vecs[0]) != sato.f.Dim() {
		t.Fatal("topic group not appended")
	}
}

func TestClassifierPredictSkipsUnknownLabels(t *testing.T) {
	enc := testEncoder()
	c := testCorpus(6)
	f := NewDosoloFeaturizer(enc)
	d := BuildDataset(f, c, []int{0, 1})
	d.Y[0] = -1
	cls := TrainClassifier(f.Groups(), len(c.Types), d, nil, quickOpts())
	preds := cls.Predict(d)
	if len(preds) != d.X.Rows-1 {
		t.Fatalf("preds = %d, want %d", len(preds), d.X.Rows-1)
	}
}

func TestSliceCols(t *testing.T) {
	m := tensor.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := sliceCols(m, 1, 3)
	if got.Cols != 2 || got.At(0, 0) != 2 || got.At(1, 1) != 6 {
		t.Fatalf("sliceCols = %v", got.Data)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
