// Package lda implements Latent Dirichlet Allocation via collapsed Gibbs
// sampling. Sato uses LDA topic vectors of whole tables as its
// table-context feature; this package provides that substrate.
package lda

import (
	"fmt"
	"math/rand"
)

// The Dirichlet priors. Short documents (tables serialize to a few dozen
// tokens) need a small document-topic prior or smoothing drowns the signal.
const (
	alpha float64 = 0.1  // document-topic prior
	beta  float64 = 0.01 // topic-word prior
)

// Model is a trained LDA topic model.
type Model struct {
	K int // topics

	vocab   map[string]int
	vocabID []string
	// topicWord[k][w] = count of word w assigned to topic k (+ derived
	// probabilities after training).
	topicWord  [][]float64
	topicTotal []float64
}

// Config controls training.
type Config struct {
	Topics     int
	Iterations int // Gibbs sweeps (default 50)
	Seed       int64
}

// Train fits an LDA model on documents (each a bag of tokens). Documents
// with no tokens are allowed and simply contribute nothing.
func Train(docs [][]string, cfg Config) (*Model, error) {
	if cfg.Topics <= 0 {
		return nil, fmt.Errorf("lda: Topics must be positive, got %d", cfg.Topics)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 50
	}
	m := &Model{K: cfg.Topics, vocab: map[string]int{}}

	// Build vocabulary and integer documents.
	intDocs := make([][]int, len(docs))
	for d, doc := range docs {
		ids := make([]int, len(doc))
		for i, w := range doc {
			id, ok := m.vocab[w]
			if !ok {
				id = len(m.vocabID)
				m.vocab[w] = id
				m.vocabID = append(m.vocabID, w)
			}
			ids[i] = id
		}
		intDocs[d] = ids
	}
	v := len(m.vocabID)
	if v == 0 {
		return nil, fmt.Errorf("lda: empty corpus")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.Topics
	topicWord := make([][]int, k)
	for i := range topicWord {
		topicWord[i] = make([]int, v)
	}
	topicTotal := make([]int, k)
	docTopic := make([][]int, len(intDocs))
	assign := make([][]int, len(intDocs))
	for d, doc := range intDocs {
		docTopic[d] = make([]int, k)
		assign[d] = make([]int, len(doc))
		for i, w := range doc {
			z := rng.Intn(k)
			assign[d][i] = z
			docTopic[d][z]++
			topicWord[z][w]++
			topicTotal[z]++
		}
	}

	probs := make([]float64, k)
	vBeta := float64(v) * beta
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range intDocs {
			for i, w := range doc {
				z := assign[d][i]
				docTopic[d][z]--
				topicWord[z][w]--
				topicTotal[z]--

				var total float64
				for t := 0; t < k; t++ {
					p := (float64(docTopic[d][t]) + alpha) *
						(float64(topicWord[t][w]) + beta) /
						(float64(topicTotal[t]) + vBeta)
					probs[t] = p
					total += p
				}
				r := rng.Float64() * total
				z = k - 1
				for t := 0; t < k; t++ {
					r -= probs[t]
					if r <= 0 {
						z = t
						break
					}
				}
				assign[d][i] = z
				docTopic[d][z]++
				topicWord[z][w]++
				topicTotal[z]++
			}
		}
	}

	// Freeze word-topic statistics for inference.
	m.topicWord = make([][]float64, k)
	m.topicTotal = make([]float64, k)
	for t := 0; t < k; t++ {
		m.topicWord[t] = make([]float64, v)
		for w := 0; w < v; w++ {
			m.topicWord[t][w] = float64(topicWord[t][w])
		}
		m.topicTotal[t] = float64(topicTotal[t])
	}
	return m, nil
}

// Infer estimates the topic distribution of a new document by a short Gibbs
// run against the frozen word-topic counts. Unknown words are skipped. The
// result sums to 1 (uniform for an empty/unknown-only document).
func (m *Model) Infer(doc []string, iterations int, seed int64) []float64 {
	if iterations <= 0 {
		iterations = 20
	}
	var ids []int
	for _, w := range doc {
		if id, ok := m.vocab[w]; ok {
			ids = append(ids, id)
		}
	}
	out := make([]float64, m.K)
	if len(ids) == 0 {
		for i := range out {
			out[i] = 1 / float64(m.K)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	docTopic := make([]int, m.K)
	assign := make([]int, len(ids))
	for i := range ids {
		z := rng.Intn(m.K)
		assign[i] = z
		docTopic[z]++
	}
	v := len(m.vocabID)
	vBeta := float64(v) * beta
	probs := make([]float64, m.K)
	for it := 0; it < iterations; it++ {
		for i, w := range ids {
			z := assign[i]
			docTopic[z]--
			var total float64
			for t := 0; t < m.K; t++ {
				p := (float64(docTopic[t]) + alpha) *
					(m.topicWord[t][w] + beta) /
					(m.topicTotal[t] + vBeta)
				probs[t] = p
				total += p
			}
			r := rng.Float64() * total
			z = m.K - 1
			for t := 0; t < m.K; t++ {
				r -= probs[t]
				if r <= 0 {
					z = t
					break
				}
			}
			assign[i] = z
			docTopic[z]++
		}
	}
	total := float64(len(ids)) + float64(m.K)*alpha
	for t := 0; t < m.K; t++ {
		out[t] = (float64(docTopic[t]) + alpha) / total
	}
	return out
}
