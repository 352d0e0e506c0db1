package crf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestZeroTransitionsDecodeEqualsArgmax(t *testing.T) {
	m := New(3)
	unary := [][]float64{
		{1, 0, 0},
		{0, 2, 0},
		{0, 0, 3},
	}
	got := m.Decode(unary)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Decode = %v", got)
	}
}

func TestDecodeUsesTransitions(t *testing.T) {
	// Unaries slightly favor state 1 at position 1, but a strong learned
	// transition 0→0 must override it.
	m := New(2)
	m.Trans[0*2+0] = 5 // 0→0 strongly preferred
	unary := [][]float64{
		{2, 0},
		{0, 0.5},
	}
	got := m.Decode(unary)
	if !reflect.DeepEqual(got, []int{0, 0}) {
		t.Fatalf("Decode = %v, transitions ignored", got)
	}
}

func TestDecodeEmptyAndSingle(t *testing.T) {
	m := New(2)
	if got := m.Decode(nil); got != nil {
		t.Fatal("empty chain should decode to nil")
	}
	if got := m.Decode([][]float64{{0, 1}}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("single-element chain = %v", got)
	}
}

func TestNLLNonNegativeAndZeroForCertainty(t *testing.T) {
	m := New(2)
	// Overwhelming unary evidence → NLL near 0 for the right labels.
	unary := [][]float64{{100, 0}, {0, 100}}
	nll := m.NLL(unary, []int{0, 1})
	if nll < 0 || nll > 1e-6 {
		t.Fatalf("NLL = %v, want ≈0", nll)
	}
	wrong := m.NLL(unary, []int{1, 0})
	if wrong < 100 {
		t.Fatalf("wrong labels NLL = %v, want large", wrong)
	}
}

// randomModel returns a CRF with small random transitions.
func randomModel(k int, rng *rand.Rand) *Model {
	m := New(k)
	for i := range m.Trans {
		m.Trans[i] = rng.NormFloat64() * 0.01
	}
	return m
}

func TestLogZMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := 3
	m := randomModel(k, rng)
	for i := range m.Trans {
		m.Trans[i] = rng.NormFloat64()
	}
	unary := [][]float64{}
	for i := 0; i < 4; i++ {
		row := make([]float64, k)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		unary = append(unary, row)
	}
	// brute force over all 3^4 sequences
	var seqs [][]int
	var build func(prefix []int)
	build = func(prefix []int) {
		if len(prefix) == 4 {
			seqs = append(seqs, append([]int(nil), prefix...))
			return
		}
		for j := 0; j < k; j++ {
			build(append(prefix, j))
		}
	}
	build(nil)
	var total float64
	for _, seq := range seqs {
		var score float64
		for i, y := range seq {
			score += unary[i][y]
			if i > 0 {
				score += m.Trans[seq[i-1]*k+y]
			}
		}
		total += math.Exp(score)
	}
	want := math.Log(total)
	got := m.logZ(unary)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("logZ = %v, brute force = %v", got, want)
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := 3
	m := randomModel(k, rng)
	for i := range m.Trans {
		m.Trans[i] = rng.NormFloat64()
	}
	unary := [][]float64{}
	for i := 0; i < 4; i++ {
		row := make([]float64, k)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		unary = append(unary, row)
	}
	score := func(seq []int) float64 {
		var s float64
		for i, y := range seq {
			s += unary[i][y]
			if i > 0 {
				s += m.Trans[seq[i-1]*k+y]
			}
		}
		return s
	}
	best := math.Inf(-1)
	var bestSeq []int
	var walk func(prefix []int)
	walk = func(prefix []int) {
		if len(prefix) == 4 {
			if s := score(prefix); s > best {
				best = s
				bestSeq = append([]int(nil), prefix...)
			}
			return
		}
		for j := 0; j < k; j++ {
			walk(append(prefix, j))
		}
	}
	walk(nil)
	got := m.Decode(unary)
	if math.Abs(score(got)-best) > 1e-9 {
		t.Fatalf("Viterbi %v (score %v) vs brute %v (score %v)", got, score(got), bestSeq, best)
	}
}

func TestTrainingLearnsTransitionPattern(t *testing.T) {
	// Ground truth: label at position i+1 always equals label at i
	// (columns of the same table share a domain). Weak/noisy unaries.
	rng := rand.New(rand.NewSource(3))
	k := 2
	m := randomModel(k, rng)

	mkChain := func(label int) ([][]float64, []int) {
		unary := make([][]float64, 4)
		labels := make([]int, 4)
		for i := range unary {
			unary[i] = []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
			labels[i] = label
		}
		// one informative position
		unary[0][label] += 1
		return unary, labels
	}

	before := 0.0
	for epoch := 0; epoch < 60; epoch++ {
		var total float64
		for c := 0; c < 20; c++ {
			unary, labels := mkChain(c % 2)
			total += m.TrainStep(unary, labels, 0.05)
		}
		if epoch == 0 {
			before = total
		}
	}
	// Self-transitions must now dominate cross-transitions.
	if m.Trans[0] <= m.Trans[1] || m.Trans[3] <= m.Trans[2] {
		t.Fatalf("self transitions not learned: %v", m.Trans)
	}
	var after float64
	for c := 0; c < 20; c++ {
		unary, labels := mkChain(c % 2)
		after += m.NLL(unary, labels)
	}
	if after >= before {
		t.Fatalf("training did not reduce NLL: before=%v after=%v", before, after)
	}
}

func TestPairwiseExpectationsSumToChainLength(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomModel(3, rng)
	unary := [][]float64{{0, 1, 2}, {2, 1, 0}, {1, 1, 1}}
	exp := m.pairwiseExpectations(unary)
	var s float64
	for _, e := range exp {
		if e < -1e-9 {
			t.Fatal("negative expectation")
		}
		s += e
	}
	// T-1 transitions in a length-3 chain
	if math.Abs(s-2) > 1e-6 {
		t.Fatalf("expectations sum to %v, want 2", s)
	}
}

func TestTrainStepShortChainNoCrash(t *testing.T) {
	m := New(2)
	nll := m.TrainStep([][]float64{{0, 1}}, []int{1}, 0.1)
	if math.IsNaN(nll) {
		t.Fatal("NaN on single-element chain")
	}
	if m.TrainStep(nil, nil, 0.1) != 0 {
		t.Fatal("empty chain NLL should be 0")
	}
}
