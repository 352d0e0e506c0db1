package lm

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/table"
)

func TestTokenizeBasic(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Tokenize("Hello, World!")
	want := []string{"hello", "world"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeSpecialTokensPreserved(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Tokenize("[CLS] abc [SEP]")
	if got[0] != TokenCLS || got[len(got)-1] != TokenSEP {
		t.Fatalf("special tokens lost: %v", got)
	}
}

func TestTokenizeCamelAndSnake(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Tokenize("pointsPerGame player_age")
	want := []string{"points", "per", "game", "player", "age"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeNumbersNormalized(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Tokenize("7.5 1234 0.02")
	want := []string{"<num7e0>", "<num1e3>", "<num0e0>"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeMixedAlphanumeric(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Tokenize("top10 NBA2023")
	want := []string{"top", "<num1e1>", "nba", "<num2e3>"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	tok := NewTokenizer()
	if got := tok.Tokenize(""); len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
	if got := tok.Tokenize("   \t\n "); len(got) != 0 {
		t.Fatalf("whitespace produced %v", got)
	}
}

func TestTokenizeLongTokenTruncated(t *testing.T) {
	tok := NewTokenizer()
	long := strings.Repeat("a", 100)
	got := tok.Tokenize(long)
	if len(got) != 1 || len(got[0]) != tok.MaxTokenLen {
		t.Fatalf("long token = %v", got)
	}
}

func TestNormalizeNumberMagnitudes(t *testing.T) {
	cases := map[string]string{
		"0":       "<num0e0>",
		"0.0":     "<num0e0>",
		"5":       "<num5e0>",
		"42":      "<num4e1>",
		"999":     "<num9e2>",
		"12345":   "<num1e4>",
		"3.14159": "<num3e0>",
	}
	for in, want := range cases {
		if got := normalizeNumber([]byte(in)); got != want {
			t.Errorf("normalizeNumber(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEncoderDeterministic(t *testing.T) {
	e1 := NewEncoder(DefaultConfig())
	e2 := NewEncoder(DefaultConfig())
	a := e1.Encode("basketball player stats")
	b := e2.Encode("basketball player stats")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two encoders with the same seed must produce identical embeddings")
	}
}

func TestEncoderSeedChangesEmbedding(t *testing.T) {
	cfg := DefaultConfig()
	e1 := NewEncoder(cfg)
	cfg.Seed++
	e2 := NewEncoder(cfg)
	a := e1.Encode("hello")
	b := e2.Encode("hello")
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds must give different embeddings")
	}
}

func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	return dot / math.Sqrt(na*nb+1e-12)
}

func TestSimilarTextsCloserThanDissimilar(t *testing.T) {
	// The load-bearing property of the frozen encoder: vocabulary overlap
	// implies embedding similarity.
	e := NewEncoder(DefaultConfig())
	a := e.Encode("basketball player points per game")
	b := e.Encode("basketball player assists per game")
	c := e.Encode("quarterly revenue euros finance")
	simAB := cosine(a, b)
	simAC := cosine(a, c)
	if simAB <= simAC {
		t.Fatalf("overlapping texts (%.3f) must be closer than disjoint texts (%.3f)", simAB, simAC)
	}
}

func TestSharedSubwordsIncreaseSimilarity(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	a := e.TokenEmbedding("basketball")
	b := e.TokenEmbedding("basketballs") // shares most char n-grams
	c := e.TokenEmbedding("xylophone")
	if cosine(a, b) <= cosine(a, c) {
		t.Fatalf("subword overlap should imply similarity: ab=%.3f ac=%.3f",
			cosine(a, b), cosine(a, c))
	}
}

func TestTokenEmbeddingUnitNorm(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	v := e.TokenEmbedding("revenue")
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	if math.Abs(math.Sqrt(n)-1) > 1e-6 {
		t.Fatalf("token embedding norm = %v", math.Sqrt(n))
	}
}

func TestEncodeDim(t *testing.T) {
	cfg := DefaultConfig()
	e := NewEncoder(cfg)
	v := e.Encode("anything at all")
	if len(v) != cfg.Dim {
		t.Fatalf("Encode dim = %d, want %d", len(v), cfg.Dim)
	}
}

func TestEncodeEmptyText(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	v := e.Encode("")
	if len(v) != e.Dim() {
		t.Fatal("empty text must still return a CLS vector")
	}
	for _, x := range v {
		if math.IsNaN(float64(x)) {
			t.Fatal("NaN in empty-text embedding")
		}
	}
}

func TestEncodeTokensTruncatesAtMaxLen(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxLen = 8
	e := NewEncoder(cfg)
	tokens := make([]string, 20)
	for i := range tokens {
		tokens[i] = "tok"
	}
	out := e.EncodeTokens(tokens)
	if out.Rows != 8 {
		t.Fatalf("EncodeTokens rows = %d, want 8 (MaxLen)", out.Rows)
	}
}

func TestEncodeTokensEmpty(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	out := e.EncodeTokens(nil)
	if out.Rows != 0 || out.Cols != e.Dim() {
		t.Fatalf("empty EncodeTokens = %v", out)
	}
}

func TestEncoderCacheConsistent(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	a := e.Encode("cached text")
	b := e.Encode("cached text") // second call hits cache
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cache must return identical vector")
	}
}

func TestEncoderNoNaNs(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	f := func(s string) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		v := e.Encode(s)
		for _, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderConcurrentUse(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	done := make(chan []float32, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- e.Encode("concurrent access test") }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if got := <-done; !reflect.DeepEqual(got, first) {
			t.Fatal("concurrent Encode results differ")
		}
	}
}

func TestHeadsMustDivideDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEncoder(Config{Dim: 10, Layers: 1, Heads: 3, MaxLen: 16, Buckets: 64, Seed: 1})
}

func TestPaperScaleConfigGeometry(t *testing.T) {
	cfg := PaperScaleConfig()
	if cfg.Dim != 768 || cfg.Layers != 12 || cfg.MaxLen != 512 {
		t.Fatalf("paper-scale config = %+v", cfg)
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a random quarter of its Puts, so pooled scratch is
// allocated afresh and allocation counts mean nothing.
var raceEnabled bool

// TestEncodeAllocations pins what Encode allocates. A text-cache miss with
// every token embedding cached allocates the vector it caches and, now and
// then, the cache map's growth; a hit allocates nothing.
func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := NewEncoder(DefaultConfig())
	texts := make([]string, 500)
	for i := range texts {
		texts[i] = fmt.Sprintf("[CLS] total points per game %d [SEP]", i)
		for _, tok := range e.Tokenize(texts[i]) {
			e.TokenEmbedding(tok)
		}
	}
	next := 0
	cold := testing.AllocsPerRun(len(texts)-1, func() {
		e.Encode(texts[next])
		next++
	})
	t.Logf("cold Encode: %v allocations on average", cold)
	if cold > 2 {
		t.Errorf("a cold Encode allocates %v times on average, want at most 2", cold)
	}
	if warm := testing.AllocsPerRun(100, func() { e.Encode(texts[0]) }); warm != 0 {
		t.Errorf("a warm Encode allocates %v times, want 0", warm)
	}
	if st := e.CacheStats(); st.TextMisses != uint64(len(texts)) {
		t.Fatalf("text misses = %d, want %d", st.TextMisses, len(texts))
	}
}

// BenchmarkEncodeColdText times Encode on cache-missing node texts shaped
// like the lake workload's: the table-name and column serializations of
// GitTables-generator tables. Token embeddings stay cached, as they do in
// a long re-score; the text cache is emptied, untimed, before each pass.
func BenchmarkEncodeColdText(b *testing.B) {
	gc := data.ReducedGitConfig()
	gc.NumTables = 16
	var texts []string
	for _, t := range data.GenerateGitTables(gc).Tables {
		texts = append(texts, table.SerializeTableName(t))
		for _, c := range t.Columns {
			texts = append(texts, table.SerializeColumn(c, table.SerializeOptions{}))
		}
	}
	e := NewEncoder(DefaultConfig())
	for _, text := range texts {
		e.Encode(text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.textVecs = newVecCache(textCacheCap)
		b.StartTimer()
		for _, text := range texts {
			e.Encode(text)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(texts)), "µs/text")
}
