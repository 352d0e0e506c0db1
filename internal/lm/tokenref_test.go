package lm

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// refTokenize is the tokenizer as it was before it learned to write into a
// reused TokenBuf, one string per token; Tokenize must match it exactly.
func refTokenize(t *Tokenizer, text string) []string {
	var out []string
	for _, field := range strings.Fields(text) {
		if field == TokenCLS || field == TokenSEP || field == TokenPAD {
			out = append(out, field)
			continue
		}
		out = append(out, refSplitWord(t, field)...)
	}
	return out
}

func refSplitWord(t *Tokenizer, s string) []string {
	var out []string
	var cur strings.Builder
	var curKind rune
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		tok := cur.String()
		if len(tok) > t.MaxTokenLen {
			tok = tok[:t.MaxTokenLen]
		}
		if curKind == 'd' {
			tok = refNormalizeNumber(tok)
		}
		out = append(out, tok)
		cur.Reset()
		curKind = 0
	}
	prevLower := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if curKind == 'd' || (prevLower && unicode.IsUpper(r)) {
				flush()
			}
			curKind = 'a'
			prevLower = unicode.IsLower(r)
			cur.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			if curKind == 'a' {
				flush()
			}
			curKind = 'd'
			prevLower = false
			cur.WriteRune(r)
		case r == '.' && curKind == 'd':
			cur.WriteRune(r)
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return out
}

func refNormalizeNumber(s string) string {
	intPart := s
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart = s[:i]
	}
	intPart = strings.TrimLeft(intPart, "0")
	if intPart == "" {
		return "<num0e0>"
	}
	lead := intPart[0]
	mag := len(intPart) - 1
	if mag > 9 {
		mag = 9
	}
	return "<num" + string(lead) + "e" + string(rune('0'+mag)) + ">"
}

// randomText draws text from the runes the tokenizer treats differently:
// ASCII and non-ASCII letters and digits, case changes, dots, punctuation,
// every kind of whitespace, special tokens and bytes that are no UTF-8.
func randomText(rng *rand.Rand) string {
	pieces := []string{
		"a", "Z", "q", "É", "ß", "中", "٣", "७", "0", "1", "5", "9", "00", ".", "..", "-", "_", "/",
		" ", "\t", "\n", "\v", " ", "\u0085", " ", "[CLS]", "[SEP]", "[PAD]", "[cls]",
		"\xff", "\xe4\xb8", "🎉", "camelCase", "snake_case", "12.50", "0.007", "1e9",
		strings.Repeat("7", 30), strings.Repeat("x", 30),
	}
	var sb strings.Builder
	for n := rng.Intn(20); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

func TestTokenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tok := range []*Tokenizer{NewTokenizer(), {MaxTokenLen: 3}, {MaxTokenLen: 0}} {
		for i := 0; i < 20000; i++ {
			text := randomText(rng)
			if got, want := tok.Tokenize(text), refTokenize(tok, text); !slices.Equal(got, want) {
				t.Fatalf("MaxTokenLen %d, Tokenize(%q) = %q, reference %q", tok.MaxTokenLen, text, got, want)
			}
		}
	}
}

// TestAddTokenEmbeddingsMatchesTokenize holds the rich-block path to the
// per-token one it replaced: the same tokens' embeddings, added in the same
// order, so the sums match bit for bit.
func TestAddTokenEmbeddingsMatchesTokenize(t *testing.T) {
	enc := NewEncoder(Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 1 << 10, Seed: 3})
	rng := rand.New(rand.NewSource(2))
	var tb TokenBuf
	for i := 0; i < 3000; i++ {
		text := randomText(rng)
		want := make([]float64, enc.Dim())
		toks := enc.Tokenize(text)
		for _, tok := range toks {
			for j, x := range enc.TokenEmbedding(tok) {
				want[j] += float64(x)
			}
		}
		got := make([]float64, enc.Dim())
		if n := enc.AddTokenEmbeddings(got, text, &tb); n != len(toks) || !slices.Equal(got, want) {
			t.Fatalf("AddTokenEmbeddings(%q) = %d tokens %v, want %d tokens %v", text, n, got, len(toks), want)
		}
	}
}

func TestAddTokenEmbeddingsAllocatesNothingWarm(t *testing.T) {
	enc := NewEncoder(Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 1 << 10, Seed: 3})
	acc := make([]float64, enc.Dim())
	var tb TokenBuf
	texts := []string{"28.1", "1995", "LeBron James", "[CLS] NBA Player Stats [SEP]", "0.0071", "PG/SF"}
	for _, text := range texts {
		enc.AddTokenEmbeddings(acc, text, &tb)
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, text := range texts {
			enc.AddTokenEmbeddings(acc, text, &tb)
		}
	}); n != 0 {
		t.Fatalf("warm AddTokenEmbeddings allocates %v times per pass", n)
	}
}
