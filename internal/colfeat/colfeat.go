// Package colfeat provides frozen, model-agnostic column-content features
// shared by Sherlock-family baselines and (projected) by Pythagoras's
// initial node states: the character-distribution profile of a column's
// rendered values.
//
// The paper's models all start from strong column-content representations —
// the baselines from Sherlock's hand-crafted features, Pythagoras from
// pre-trained-BERT CLS vectors. Our frozen pseudo-BERT is a weaker feature
// extractor than real BERT, so Pythagoras additionally folds this frozen
// profile into its initial column embeddings (the paper's footnote 3
// explicitly leaves the initial embedding method open).
package colfeat

import "math"

// CharProfileDim is the width of the character-distribution profile:
// frequencies of 26 letters + 10 digits + 8 punctuation buckets + 6
// aggregates.
const CharProfileDim = 50

// CharProfile computes the character-distribution profile of a column's
// rendered values.
func CharProfile(vals []string) []float64 {
	out := make([]float64, CharProfileDim)
	CharProfileInto(out, vals)
	return out
}

// CharProfileInto writes CharProfile(vals) into out, which must hold
// CharProfileDim values.
func CharProfileInto(out []float64, vals []string) {
	out = out[:CharProfileDim]
	clear(out)
	var total, letters, digits, upper, spaces, special float64
	var lenSum, lenSq float64
	for _, v := range vals {
		lenSum += float64(len(v))
		lenSq += float64(len(v)) * float64(len(v))
		for _, r := range v {
			total++
			switch {
			case r >= 'a' && r <= 'z':
				out[r-'a']++
				letters++
			case r >= 'A' && r <= 'Z':
				out[r-'A']++
				letters++
				upper++
			case r >= '0' && r <= '9':
				out[26+(r-'0')]++
				digits++
			case r == ' ':
				spaces++
			default:
				special++
				out[36+int(r)%8]++ // bucket punctuation into 8 classes
			}
		}
	}
	if total > 0 {
		for i := 0; i < 44; i++ {
			out[i] /= total
		}
	}
	n := float64(len(vals))
	if n > 0 {
		meanLen := lenSum / n
		out[44] = meanLen
		out[45] = math.Sqrt(math.Max(0, lenSq/n-meanLen*meanLen))
	}
	if total > 0 {
		out[46] = letters / total
		out[47] = digits / total
		out[48] = upper / total
		out[49] = (spaces + special) / total
	}
}
