package data

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/table"
)

func TestSportsTypeCatalogSize(t *testing.T) {
	types := SportsTypeCatalog()
	if len(types) != 462 {
		t.Fatalf("SportsTables catalog has %d types, Table 1 says 462", len(types))
	}
	seen := map[string]bool{}
	for _, st := range types {
		if seen[st] {
			t.Fatalf("duplicate type %q", st)
		}
		seen[st] = true
	}
}

func TestSportsCatalogContainsPaperExamples(t *testing.T) {
	types := map[string]bool{}
	for _, st := range SportsTypeCatalog() {
		types[st] = true
	}
	// Types the paper explicitly names.
	for _, want := range []string{
		"basketball.player.assists_per_game",
		"soccer.player.assists",
		"basketball.player.points_per_game",
	} {
		if !types[want] {
			t.Fatalf("catalog missing paper example %q", want)
		}
	}
}

func TestGitTypeCatalogSize(t *testing.T) {
	types := GitTypeCatalog()
	if len(types) != 219 {
		t.Fatalf("GitTables catalog has %d types, Table 1 says 219", len(types))
	}
	seen := map[string]bool{}
	for _, st := range types {
		if seen[st] {
			t.Fatalf("duplicate type %q", st)
		}
		seen[st] = true
	}
}

func TestGenerateSportsTablesReducedScale(t *testing.T) {
	c := GenerateSportsTables(ReducedSportsConfig())
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.NumTables != 220 {
		t.Fatalf("tables = %d", s.NumTables)
	}
	// Shape invariants of Table 1: few text columns, many numeric columns.
	if s.AvgTextCols < 2 || s.AvgTextCols > 3.2 {
		t.Fatalf("avg text cols = %.2f, want ≈2.83", s.AvgTextCols)
	}
	if s.AvgNumCols < 15 || s.AvgNumCols > 18.5 {
		t.Fatalf("avg numeric cols = %.2f, want ≈18", s.AvgNumCols)
	}
	if s.NumericShare < 0.8 {
		t.Fatalf("numeric share = %.2f", s.NumericShare)
	}
}

func TestGenerateSportsTablesVocabularySubsetOfCatalog(t *testing.T) {
	c := GenerateSportsTables(ReducedSportsConfig())
	catalog := map[string]bool{}
	for _, st := range SportsTypeCatalog() {
		catalog[st] = true
	}
	for _, st := range c.Types {
		if !catalog[st] {
			t.Fatalf("generated type %q not in catalog", st)
		}
	}
	// At 220 tables every type should occur.
	if len(c.Types) != 462 {
		t.Fatalf("reduced corpus covers %d/462 types", len(c.Types))
	}
}

func TestSportsDeterminism(t *testing.T) {
	a := GenerateSportsTables(ReducedSportsConfig())
	b := GenerateSportsTables(ReducedSportsConfig())
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("table counts differ")
	}
	for i := range a.Tables {
		if a.Tables[i].Name != b.Tables[i].Name {
			t.Fatal("same seed must generate identical corpora")
		}
		if len(a.Tables[i].Columns) != len(b.Tables[i].Columns) {
			t.Fatal("column counts differ")
		}
	}
}

func TestSportsSharedStatsAliasAcrossDomains(t *testing.T) {
	// The core difficulty: 'age' exists as a distinct semantic type in
	// every domain×entity, with identical distribution.
	types := map[string]bool{}
	for _, st := range SportsTypeCatalog() {
		types[st] = true
	}
	count := 0
	for _, st := range SportsTypeCatalog() {
		if strings.HasSuffix(st, ".player.age") {
			count++
		}
	}
	if count != 11 {
		t.Fatalf("player.age aliased across %d domains, want 11", count)
	}
}

func TestSportsTablesHaveSyntheticHeaders(t *testing.T) {
	c := GenerateSportsTables(SportsConfig{NumTables: 11, Seed: 1, MinRows: 5, MaxRows: 8, WeakNameProb: 0})
	for _, tb := range c.Tables {
		for _, col := range tb.Columns {
			if col.SyntheticHeader == "" {
				t.Fatalf("column %q missing synthetic header", col.Header)
			}
		}
	}
}

func TestGenerateGitTablesReducedScale(t *testing.T) {
	c := GenerateGitTables(ReducedGitConfig())
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.NumTables < 250 {
		t.Fatalf("tables = %d (some dropped entirely?)", s.NumTables)
	}
	if s.AvgTextCols > 3 {
		t.Fatalf("avg text cols = %.2f, want ≈2", s.AvgTextCols)
	}
	if s.AvgNumCols < 6 || s.AvgNumCols > 13 {
		t.Fatalf("avg numeric cols = %.2f, want ≈9", s.AvgNumCols)
	}
	// ≥80 % numeric — the corpus construction rule
	if s.NumericShare < 0.78 {
		t.Fatalf("numeric share = %.2f, want ≥0.8", s.NumericShare)
	}
}

func TestGitTablesZipfImbalance(t *testing.T) {
	// Type frequencies must be heavily imbalanced (macro ≪ weighted
	// signature). Compare most common vs median type frequency.
	c := GenerateGitTables(ReducedGitConfig())
	counts := map[string]int{}
	for _, tb := range c.Tables {
		for _, col := range tb.Columns {
			counts[col.SemanticType]++
		}
	}
	var freqs []int
	for _, n := range counts {
		freqs = append(freqs, n)
	}
	mx, sum := 0, 0
	for _, f := range freqs {
		if f > mx {
			mx = f
		}
		sum += f
	}
	mean := float64(sum) / float64(len(freqs))
	if float64(mx) < 4*mean {
		t.Fatalf("imbalance too weak: max=%d mean=%.1f", mx, mean)
	}
}

func TestGitTablesMinSupportRespected(t *testing.T) {
	cfg := ReducedGitConfig()
	c := GenerateGitTables(cfg)
	counts := map[string]int{}
	for _, tb := range c.Tables {
		for _, col := range tb.Columns {
			counts[col.SemanticType]++
		}
	}
	for st, n := range counts {
		if n < cfg.MinSupport {
			t.Fatalf("type %q occurs %d < MinSupport %d", st, n, cfg.MinSupport)
		}
	}
}

func TestGitTablesIDColumnsSequential(t *testing.T) {
	c := GenerateGitTables(GitConfig{NumTables: 80, Seed: 5, MinRows: 10, MaxRows: 12, NameHintProb: 0, MinSupport: 1})
	found := false
	for _, tb := range c.Tables {
		for _, col := range tb.Columns {
			if col.SemanticType == "dbpedia/id" {
				found = true
				for r := 1; r < len(col.NumValues); r++ {
					if col.NumValues[r] <= col.NumValues[r-1] {
						t.Fatal("id column not strictly increasing")
					}
				}
			}
		}
	}
	if !found {
		t.Skip("no id column sampled at this seed/scale")
	}
}

func TestCorpusFilterMinSupport(t *testing.T) {
	c := &Corpus{Name: "t"}
	mk := func(id, st string) *table.Table {
		return &table.Table{Name: "n", ID: id, Columns: []*table.Column{
			{Header: "h", SemanticType: st, Kind: table.KindNumeric, NumValues: []float64{1}},
		}}
	}
	c.Tables = []*table.Table{mk("a", "common"), mk("b", "common"), mk("c", "rare")}
	c.BuildVocabulary()
	c.FilterMinSupport(2)
	if len(c.Tables) != 2 {
		t.Fatalf("tables after filter = %d", len(c.Tables))
	}
	if len(c.Types) != 1 || c.Types[0] != "common" {
		t.Fatalf("types after filter = %v", c.Types)
	}
}

func TestCorpusValidateCatchesDuplicateIDs(t *testing.T) {
	c := GenerateSportsTables(SportsConfig{NumTables: 11, Seed: 3, MinRows: 5, MaxRows: 8, WeakNameProb: 0})
	c.Tables[1].ID = c.Tables[0].ID
	if err := c.Validate(); err == nil {
		t.Fatal("duplicate ids not caught")
	}
}

func TestStatsStringNonEmpty(t *testing.T) {
	c := GenerateSportsTables(SportsConfig{NumTables: 11, Seed: 4, MinRows: 5, MaxRows: 8, WeakNameProb: 0})
	if c.ComputeStats().String() == "" {
		t.Fatal("stats formatting empty")
	}
}

func TestSynthesizeHeadersPaperExample(t *testing.T) {
	// "Player Age" must synthesize plural plausible abbreviations incl. an
	// initialism, as in the paper's GPT list.
	cands := SynthesizeHeaders("Player Age", 10)
	if len(cands) < 5 {
		t.Fatalf("only %d candidates: %v", len(cands), cands)
	}
	hasInitialism := false
	for _, c := range cands {
		if c == "PA" {
			hasInitialism = true
		}
	}
	if !hasInitialism {
		t.Fatalf("initialism missing from %v", cands)
	}
	// deterministic
	again := SynthesizeHeaders("Player Age", 10)
	for i := range cands {
		if cands[i] != again[i] {
			t.Fatal("synthesis must be deterministic")
		}
	}
}

func TestSynthesizeHeadersSingleWordAndEmpty(t *testing.T) {
	if cands := SynthesizeHeaders("Goals", 10); len(cands) == 0 {
		t.Fatal("single word must synthesize")
	}
	if cands := SynthesizeHeaders("", 10); cands != nil {
		t.Fatalf("empty header synthesized %v", cands)
	}
}

func TestSynthesizeHeadersUnique(t *testing.T) {
	cands := SynthesizeHeaders("Points Per Game", 10)
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %q in %v", c, cands)
		}
		seen[c] = true
	}
}

func TestStatSpecSampling(t *testing.T) {
	rng := newTestRand()
	specs := []struct {
		spec    StatSpec
		lo, hi  float64
		intLike bool
	}{
		{cnt("x", "X", 5, 10), 5, 10, true},
		{pct("x", "X", 0, 100), 0, 100, false},
		{frac01("x", "X", 0, 1), 0, 1, false},
	}
	for _, c := range specs {
		for i := 0; i < 200; i++ {
			v := c.spec.sample(rng)
			if v < c.lo-1e-9 || v > c.hi+1e-9 {
				t.Fatalf("sample %v outside [%v,%v]", v, c.lo, c.hi)
			}
			if c.intLike && v != math.Trunc(v) {
				t.Fatalf("integer spec produced %v", v)
			}
		}
	}
}

func TestStatSpecNonNegativeByDefault(t *testing.T) {
	rng := newTestRand()
	sp := rate("x", "X", 0.5, 3)
	for i := 0; i < 500; i++ {
		if sp.sample(rng) < 0 {
			t.Fatal("non-AllowNeg normal produced a negative value")
		}
	}
	neg := rateNeg("x", "X", 0, 3)
	sawNeg := false
	for i := 0; i < 500; i++ {
		if neg.sample(rng) < 0 {
			sawNeg = true
		}
	}
	if !sawNeg {
		t.Fatal("AllowNeg spec never negative")
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
