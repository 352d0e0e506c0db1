package lda

import (
	"math"
	"testing"
)

func topicCorpus() [][]string {
	sports := []string{"player", "game", "score", "team", "season", "points", "league"}
	finance := []string{"revenue", "profit", "quarter", "euro", "stock", "market", "price"}
	var docs [][]string
	for i := 0; i < 30; i++ {
		docs = append(docs, sports)
		docs = append(docs, finance)
	}
	return docs
}

func TestTrainBasics(t *testing.T) {
	m, err := Train(topicCorpus(), Config{Topics: 2, Iterations: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 2 {
		t.Fatalf("K = %d", m.K)
	}
	if len(m.vocabID) != 14 {
		t.Fatalf("vocab = %d, want 14", len(m.vocabID))
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	if _, err := Train(topicCorpus(), Config{Topics: 0}); err == nil {
		t.Fatal("Topics=0 must error")
	}
	if _, err := Train(nil, Config{Topics: 2}); err == nil {
		t.Fatal("empty corpus must error")
	}
}

func TestInferSumsToOne(t *testing.T) {
	m, err := Train(topicCorpus(), Config{Topics: 3, Iterations: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.Infer([]string{"player", "game", "score"}, 20, 1)
	var s float64
	for _, p := range theta {
		if p < 0 {
			t.Fatal("negative topic probability")
		}
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("topic distribution sums to %v", s)
	}
}

func TestInferSeparatesTopics(t *testing.T) {
	// Documents from clearly distinct vocabularies must get clearly
	// distinct topic vectors — the property Sato relies on.
	m, err := Train(topicCorpus(), Config{Topics: 2, Iterations: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Infer([]string{"player", "game", "team", "points", "league", "season"}, 40, 1)
	b := m.Infer([]string{"revenue", "profit", "stock", "market", "euro", "price"}, 40, 1)
	var dist float64
	for i := range a {
		dist += math.Abs(a[i] - b[i])
	}
	if dist < 0.5 {
		t.Fatalf("sports vs finance topic distance = %v, want separation", dist)
	}
}

func TestInferUnknownWordsUniform(t *testing.T) {
	m, err := Train(topicCorpus(), Config{Topics: 4, Iterations: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.Infer([]string{"zzz", "qqq"}, 10, 1)
	for _, p := range theta {
		if math.Abs(p-0.25) > 1e-9 {
			t.Fatalf("unknown-word doc should be uniform, got %v", theta)
		}
	}
}

func TestInferEmptyDoc(t *testing.T) {
	m, err := Train(topicCorpus(), Config{Topics: 2, Iterations: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.Infer(nil, 10, 1)
	if len(theta) != 2 || math.Abs(theta[0]+theta[1]-1) > 1e-9 {
		t.Fatalf("empty doc inference = %v", theta)
	}
}

func TestInferDeterministicPerSeed(t *testing.T) {
	m, err := Train(topicCorpus(), Config{Topics: 2, Iterations: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Infer([]string{"player", "game"}, 20, 42)
	b := m.Infer([]string{"player", "game"}, 20, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same inference")
		}
	}
}
