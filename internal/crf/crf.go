// Package crf implements a linear-chain conditional random field over the
// column sequence of a table — Sato's structured prediction layer. Unary
// potentials come from a per-column classifier's logits; the CRF learns a
// pairwise transition matrix between adjacent columns' semantic types and
// decodes with Viterbi.
package crf

import (
	"math"
)

// Model is a linear-chain CRF with K states (semantic types).
type Model struct {
	K int
	// Trans[i*K+j] is the learned score for type i followed by type j.
	Trans []float64
}

// New returns a CRF with zero-initialized transitions (equivalent to
// independent decoding until trained).
func New(k int) *Model {
	return &Model{K: k, Trans: make([]float64, k*k)}
}

// logSumExp returns log Σ exp(xs) computed stably.
func logSumExp(xs []float64) float64 {
	mx := math.Inf(-1)
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - mx)
	}
	return mx + math.Log(s)
}

// logZ computes the log partition function of a chain with the given unary
// scores (T×K) plus alpha (T×K forward log-messages, reused buffer).
func (m *Model) logZ(unary [][]float64) float64 {
	t := len(unary)
	if t == 0 {
		return 0
	}
	k := m.K
	alpha := append([]float64(nil), unary[0]...)
	next := make([]float64, k)
	tmp := make([]float64, k)
	for i := 1; i < t; i++ {
		for j := 0; j < k; j++ {
			for p := 0; p < k; p++ {
				tmp[p] = alpha[p] + m.Trans[p*k+j]
			}
			next[j] = logSumExp(tmp) + unary[i][j]
		}
		alpha, next = next, alpha
	}
	return logSumExp(alpha)
}

// NLL returns the negative log-likelihood of the label sequence given
// unary scores.
func (m *Model) NLL(unary [][]float64, labels []int) float64 {
	t := len(unary)
	if t == 0 {
		return 0
	}
	var score float64
	for i := 0; i < t; i++ {
		score += unary[i][labels[i]]
		if i > 0 {
			score += m.Trans[labels[i-1]*m.K+labels[i]]
		}
	}
	return m.logZ(unary) - score
}

// marginals returns pairwise transition expectations E[1{y_{i-1}=p, y_i=j}]
// summed over positions — the gradient statistics for training.
func (m *Model) pairwiseExpectations(unary [][]float64) []float64 {
	t := len(unary)
	k := m.K
	exp := make([]float64, k*k)
	if t < 2 {
		return exp
	}
	// forward
	alphas := make([][]float64, t)
	alphas[0] = append([]float64(nil), unary[0]...)
	tmp := make([]float64, k)
	for i := 1; i < t; i++ {
		alphas[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			for p := 0; p < k; p++ {
				tmp[p] = alphas[i-1][p] + m.Trans[p*k+j]
			}
			alphas[i][j] = logSumExp(tmp) + unary[i][j]
		}
	}
	// backward
	betas := make([][]float64, t)
	betas[t-1] = make([]float64, k) // zeros
	for i := t - 2; i >= 0; i-- {
		betas[i] = make([]float64, k)
		for p := 0; p < k; p++ {
			for j := 0; j < k; j++ {
				tmp[j] = m.Trans[p*k+j] + unary[i+1][j] + betas[i+1][j]
			}
			betas[i][p] = logSumExp(tmp)
		}
	}
	logZ := logSumExp(alphas[t-1])
	for i := 1; i < t; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < k; j++ {
				lp := alphas[i-1][p] + m.Trans[p*k+j] + unary[i][j] + betas[i][j] - logZ
				exp[p*k+j] += math.Exp(lp)
			}
		}
	}
	return exp
}

// TrainStep performs one SGD step of transition-matrix learning on a single
// chain: gradient = E_model[counts] − observed counts. Returns the chain's
// NLL before the update.
func (m *Model) TrainStep(unary [][]float64, labels []int, lr float64) float64 {
	nll := m.NLL(unary, labels)
	if len(unary) < 2 {
		return nll
	}
	exp := m.pairwiseExpectations(unary)
	k := m.K
	for i := 1; i < len(labels); i++ {
		exp[labels[i-1]*k+labels[i]] -= 1
	}
	for idx, g := range exp {
		m.Trans[idx] -= lr * g
	}
	return nll
}

// Decode returns the Viterbi-optimal label sequence for the unary scores.
func (m *Model) Decode(unary [][]float64) []int {
	t := len(unary)
	if t == 0 {
		return nil
	}
	k := m.K
	delta := append([]float64(nil), unary[0]...)
	back := make([][]int, t)
	next := make([]float64, k)
	for i := 1; i < t; i++ {
		back[i] = make([]int, k)
		for j := 0; j < k; j++ {
			best, bestP := math.Inf(-1), 0
			for p := 0; p < k; p++ {
				s := delta[p] + m.Trans[p*k+j]
				if s > best {
					best, bestP = s, p
				}
			}
			next[j] = best + unary[i][j]
			back[i][j] = bestP
		}
		delta, next = next, delta
	}
	bestJ, best := 0, math.Inf(-1)
	for j, v := range delta {
		if v > best {
			best, bestJ = v, j
		}
	}
	out := make([]int, t)
	out[t-1] = bestJ
	for i := t - 1; i > 0; i-- {
		out[i-1] = back[i][out[i]]
	}
	return out
}
