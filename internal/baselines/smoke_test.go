package baselines

import (
	"testing"

	"github.com/sematype/pythagoras/internal/eval"
)

// Per-baseline determinism smoke tests: every baseline trained twice with
// the same seed on the same fixed mini-corpus must produce identical
// prediction lists. This is the reproducibility contract the paper's
// comparison table rests on — a baseline whose numbers move between runs
// cannot be compared against.

// smokeOpts keeps training tiny: the assertions are about determinism, not
// accuracy.
func smokeOpts() TrainOpts {
	o := quickOpts()
	o.Epochs = 2
	o.Patience = 2
	o.Seed = 42
	return o
}

// assertSamePredictions fails if two prediction lists differ anywhere.
func assertSamePredictions(t *testing.T, name string, a, b []eval.Prediction) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: prediction counts differ across runs: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: prediction %d differs across identically seeded runs: %+v vs %+v",
				name, i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatalf("%s: smoke corpus produced no predictions", name)
	}
}

// trainEval trains one baseline and evaluates it on the held-out tables.
type trainEval func() []eval.Prediction

func runTwice(t *testing.T, name string, run trainEval) {
	t.Helper()
	assertSamePredictions(t, name, run(), run())
}

func TestSherlockSmokeDeterministic(t *testing.T) {
	c := testCorpus(10)
	enc := testEncoder()
	runTwice(t, "sherlock", func() []eval.Prediction {
		m := TrainSherlock(c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, enc, smokeOpts())
		_, preds := m.Evaluate(c, []int{8, 9})
		return preds
	})
}

func TestSatoSmokeDeterministic(t *testing.T) {
	c := testCorpus(10)
	enc := testEncoder()
	runTwice(t, "sato", func() []eval.Prediction {
		m, err := TrainSato(c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, enc,
			SatoOpts{TrainOpts: smokeOpts(), Topics: 2, CRFEpochs: 1, CRFRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		_, preds := m.Evaluate(c, []int{8, 9})
		return preds
	})
}

func TestDosoloSmokeDeterministic(t *testing.T) {
	c := testCorpus(10)
	enc := testEncoder()
	runTwice(t, "dosolo", func() []eval.Prediction {
		m := TrainDosolo(c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, enc, smokeOpts())
		_, preds := m.Evaluate(c, []int{8, 9})
		return preds
	})
}

func TestDoduoSmokeDeterministic(t *testing.T) {
	c := testCorpus(10)
	enc := testEncoder()
	runTwice(t, "doduo", func() []eval.Prediction {
		m := TrainDoduo(c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, enc, smokeOpts())
		_, preds := m.Evaluate(c, []int{8, 9})
		return preds
	})
}

func TestLLMSmokeDeterministic(t *testing.T) {
	c := testCorpus(10)
	enc := testEncoder()
	runTwice(t, "llmft", func() []eval.Prediction {
		m := TrainLLM(c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, enc, smokeOpts())
		_, preds := m.Evaluate(c, []int{8, 9})
		return preds
	})
}
