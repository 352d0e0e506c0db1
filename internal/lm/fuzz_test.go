package lm

import (
	"math"
	"slices"
	"testing"
)

// FuzzTokenizeAndEmbed asserts the tokenizer and embedder accept arbitrary
// input without panicking, producing finite vectors, and that Tokenize
// matches the reference tokenizer.
func FuzzTokenizeAndEmbed(f *testing.F) {
	f.Add("NBA Player Stats 2023")
	f.Add("7.5 2.1 -3e9")
	f.Add("[CLS] weird [SEP]")
	f.Add("äöü 中文 🎉 mixed")
	f.Add("")
	enc := NewEncoder(Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 256, Seed: 1})
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 500 {
			text = text[:500]
		}
		toks := enc.Tokenize(text)
		if want := refTokenize(enc.tok, text); !slices.Equal(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, toks, want)
		}
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token produced")
			}
			for _, v := range enc.TokenEmbedding(tok) {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("non-finite embedding for token %q", tok)
				}
			}
		}
		for _, v := range enc.Encode(text) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("non-finite CLS vector")
			}
		}
	})
}
