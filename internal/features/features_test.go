package features

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestExactly192Features(t *testing.T) {
	if len(names) != 192 || len(refRegistry) != 192 {
		t.Fatalf("%d names, %d reference features; paper requires 192", len(names), len(refRegistry))
	}
	if got := len(Extract([]float64{1, 2, 3})); got != Dim {
		t.Fatalf("Extract returned %d values", got)
	}
	if got := len(Names()); got != Dim {
		t.Fatalf("Names returned %d", got)
	}
}

func TestFeatureNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if n == "" {
			t.Fatal("empty feature name")
		}
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

// featureByName returns the function computing one named feature of a
// column.
func featureByName(t *testing.T, name string) func([]float64) float64 {
	t.Helper()
	for i, n := range names {
		if n == name {
			return func(vals []float64) float64 { return Extract(vals)[i] }
		}
	}
	t.Fatalf("no feature %q", name)
	return nil
}

// requireFinite fails if any feature of vals is NaN or ±Inf.
func requireFinite(t *testing.T, what string, vals []float64) {
	t.Helper()
	for i, v := range Extract(vals) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %q = %v on %s", names[i], v, what)
		}
	}
}

func TestSummarizeBasicStats(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	want := map[string]float64{
		"count": 5, "min": 1, "max": 5, "mean": 3, "variance": 2,
		"n_unique": 5, "n_zero": 0, "frac_negative": 0, "frac_positive": 1,
	}
	for name, w := range want {
		if got := featureByName(t, name)(vals); math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := featureByName(t, "count")(nil); got != 0 {
		t.Fatalf("count of an empty column = %v", got)
	}
	requireFinite(t, "empty input", nil)
}

func TestSummarizeSingleValue(t *testing.T) {
	requireFinite(t, "single value", []float64{42})
	if featureByName(t, "std")([]float64{42}) != 0 {
		t.Fatal("single value must have zero std")
	}
}

func TestSummarizeConstantColumn(t *testing.T) {
	vals := []float64{7, 7, 7, 7}
	if std, u := featureByName(t, "std")(vals), featureByName(t, "n_unique")(vals); std != 0 || u != 1 {
		t.Fatalf("constant column: std=%v unique=%v", std, u)
	}
	requireFinite(t, "constant column", vals)
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := quantile(sorted, 0.5); got != 5 {
		t.Fatalf("median of {0,10} = %v", got)
	}
	if got := quantile(sorted, 0); got != 0 {
		t.Fatalf("p0 = %v", got)
	}
	if got := quantile(sorted, 1); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestSkewnessSign(t *testing.T) {
	rightSkewed := []float64{1, 1, 1, 1, 2, 2, 3, 10, 50}
	if skew := featureByName(t, "skewness")(rightSkewed); skew <= 0 {
		t.Fatalf("right-skewed data has skew %v", skew)
	}
}

func TestIntegralityFeatures(t *testing.T) {
	fn := featureByName(t, "frac_integer")
	if got := fn([]float64{1, 2, 3}); got != 1 {
		t.Fatalf("frac_integer(ints) = %v", got)
	}
	if got := fn([]float64{1.5, 2.5}); got != 0 {
		t.Fatalf("frac_integer(halves) = %v", got)
	}
	half := featureByName(t, "frac_half_integer")
	if got := half([]float64{1.5, 2.5, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("frac_half_integer = %v", got)
	}
}

func TestYearDetector(t *testing.T) {
	fn := featureByName(t, "frac_year_like")
	if got := fn([]float64{1995, 2001, 2023}); got != 1 {
		t.Fatalf("year detector on years = %v", got)
	}
	if got := fn([]float64{7.5, 12.3}); got != 0 {
		t.Fatalf("year detector on floats = %v", got)
	}
}

func TestMonthDayDetectors(t *testing.T) {
	month := featureByName(t, "frac_month_like")
	if got := month([]float64{1, 6, 12}); got != 1 {
		t.Fatalf("month detector = %v", got)
	}
	if got := month([]float64{13, 0}); got != 0 {
		t.Fatalf("month detector out of range = %v", got)
	}
	day := featureByName(t, "frac_day_like")
	if got := day([]float64{1, 15, 31}); got != 1 {
		t.Fatalf("day detector = %v", got)
	}
}

func TestLeadingDigit(t *testing.T) {
	cases := map[float64]int{123: 1, 0.05: 5, 9: 9, 0: 0, -42: 4, 1e9: 1}
	for in, want := range cases {
		if got := leadingDigit(in); got != want {
			t.Errorf("leadingDigit(%v) = %d, want %d", in, got, want)
		}
	}
}

func TestBenfordOnBenfordData(t *testing.T) {
	// Values sampled log-uniformly follow Benford's law → low chi2.
	rng := rand.New(rand.NewSource(1))
	benford := make([]float64, 5000)
	for i := range benford {
		benford[i] = math.Pow(10, rng.Float64()*6)
	}
	uniform := make([]float64, 5000)
	for i := range uniform {
		uniform[i] = 500 + rng.Float64()*99 // leading digit always 5
	}
	chi2 := featureByName(t, "benford_chi2")
	b := chi2((benford))
	u := chi2((uniform))
	if b >= u {
		t.Fatalf("benford chi2: benford=%v should be < concentrated=%v", b, u)
	}
}

func TestSortednessFeatures(t *testing.T) {
	asc := featureByName(t, "frac_ascending_pairs")
	mono := featureByName(t, "is_monotonic_inc")
	s := []float64{1, 2, 3, 4}
	if asc(s) != 1 || mono(s) != 1 {
		t.Fatal("ascending sequence not detected")
	}
	s2 := []float64{4, 3, 2, 1}
	if asc(s2) != 0 || mono(s2) != 0 {
		t.Fatal("descending sequence misdetected")
	}
	if featureByName(t, "is_monotonic_dec")(s2) != 1 {
		t.Fatal("monotonic decreasing not detected")
	}
}

func TestOutlierFeatures(t *testing.T) {
	base := make([]float64, 99)
	for i := range base {
		base[i] = float64(i % 10)
	}
	withOutlier := append(append([]float64{}, base...), 1e6)
	f := featureByName(t, "frac_beyond_3std")
	if f((base)) != 0 {
		t.Fatal("clean data flagged outliers")
	}
	if f((withOutlier)) == 0 {
		t.Fatal("outlier missed")
	}
}

func TestEntropyFeatures(t *testing.T) {
	ent := featureByName(t, "value_entropy_norm")
	uniform := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	constant := []float64{5, 5, 5, 5}
	if ent(uniform) < 0.99 {
		t.Fatalf("uniform entropy = %v, want ≈1", ent(uniform))
	}
	if ent(constant) != 0 {
		t.Fatalf("constant entropy = %v, want 0", ent(constant))
	}
}

func TestModeFrac(t *testing.T) {
	fn := featureByName(t, "mode_frac")
	if got := fn([]float64{1, 1, 1, 2}); got != 0.75 {
		t.Fatalf("mode_frac = %v", got)
	}
}

func TestHistogramSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	s := vals
	var total float64
	for b := 0; b < 10; b++ {
		total += featureByName(t, "hist10_"+string(rune('0'+b)))(s)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("histogram sums to %v", total)
	}
}

func TestDecimalPlaces(t *testing.T) {
	// The e-form cases read the count off the exponent: 'g' switches to it
	// below 1e-4 and from 1e21 on, where 'f' still spells every digit.
	cases := map[float64]int{
		1: 0, 1.5: 1, 3.25: 2, 100: 0, 0: 0, -0.125: 3,
		1.5e-7: 8, 1e-5: 5, -2.5e-300: 301, 1e21: 0, 1.234e22: 0, 5e-324: 324,
	}
	for in, want := range cases {
		g := strconv.AppendFloat(nil, in, 'g', -1, 64)
		got := decimalPlaces(g, strings.ContainsAny(string(g), "eE"))
		if got != want || got != refDecimalPlaces(in) {
			t.Errorf("decimalPlaces(%s) = %d, want %d (FormatFloat 'f' gives %d)", g, got, want, refDecimalPlaces(in))
		}
	}
}

func TestAllFeaturesFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
			case 1:
				vals[i] = float64(rng.Intn(1000))
			case 2:
				vals[i] = 0
			default:
				vals[i] = -rng.Float64()
			}
		}
		for _, v := range Extract(vals) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractNormalizedBounded(t *testing.T) {
	vals := []float64{1e12, -1e12, 5, 0}
	for i, v := range ExtractNormalized(vals) {
		if math.Abs(v) > 20 {
			t.Fatalf("normalized feature %d (%s) = %v, too large", i, Names()[i], v)
		}
	}
}

func TestExtractDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Extract(vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("Extract mutated its input")
	}
}

func TestDistributionsDistinguishable(t *testing.T) {
	// The reason V_ncf exists: same range, different shape must produce
	// different feature vectors (paper §3.2).
	rng := rand.New(rand.NewSource(3))
	normal := make([]float64, 200)
	uniform := make([]float64, 200)
	for i := range normal {
		normal[i] = 50 + 10*rng.NormFloat64()
		uniform[i] = 20 + 60*rng.Float64()
	}
	a := Extract(normal)
	b := Extract(uniform)
	var dist float64
	for i := range a {
		d := a[i] - b[i]
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Fatalf("normal vs uniform distance = %v, expected clearly separated", math.Sqrt(dist))
	}
}

func BenchmarkExtract200Values(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(vals)
	}
}
