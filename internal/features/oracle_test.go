package features

// The registry of 192 closures that computed the features before the
// one-pass extractor, kept verbatim (identifiers prefixed "ref") as the
// oracle the extractor must match bit for bit. Each closure re-reads the
// summary it needs, which makes the oracle slow but obviously faithful to
// each feature's definition.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// refFeature couples a stable name with its extractor.
type refFeature struct {
	Name string
	Fn   func(*refSummary) float64
}

var refRegistry []refFeature

// refNames returns the feature names in vector order.
func refNames() []string {
	out := make([]string, len(refRegistry))
	for i, f := range refRegistry {
		out[i] = f.Name
	}
	return out
}

// refSummary holds the precomputed statistics all features derive from.
type refSummary struct {
	Values []float64 // original order
	Sorted []float64
	N      int

	Mean, Var, Std, Skew, Kurt float64
	Min, Max                   float64
	Sum                        float64

	NUnique    int
	NZero      int
	NNeg, NPos int

	// log-domain refMoments over log1p(|x|)
	LogMean, LogStd, LogSkew, LogKurt float64

	counts map[float64]int

	// Lazily memoized renderings shared by the string-form and
	// decimal-place features — formatting floats is expensive enough to
	// show up in inference profiles, so each value is rendered once per
	// refSummary instead of once per feature. A refSummary is not safe for
	// concurrent use.
	strs    []string
	strLens []int
	decs    []int
}

// Strs returns every value rendered via FormatFloat(v, 'g', -1, 64) in
// original order, computed once per refSummary.
func (s *refSummary) Strs() []string {
	if s.strs == nil {
		s.strs = make([]string, s.N)
		for i, v := range s.Values {
			s.strs[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	return s.strs
}

// strLengths returns len(Strs()[i]) per value, computed once per refSummary.
func (s *refSummary) strLengths() []int {
	if s.strLens == nil {
		strs := s.Strs()
		s.strLens = make([]int, len(strs))
		for i, str := range strs {
			s.strLens[i] = len(str)
		}
	}
	return s.strLens
}

// decimals returns refDecimalPlaces(v) per value, computed once per refSummary.
func (s *refSummary) decimals() []int {
	if s.decs == nil {
		s.decs = make([]int, s.N)
		for i, v := range s.Values {
			s.decs[i] = refDecimalPlaces(v)
		}
	}
	return s.decs
}

// refSummarize computes a refSummary for values. It never mutates the input.
func refSummarize(values []float64) *refSummary {
	s := &refSummary{Values: values, N: len(values), counts: make(map[float64]int)}
	if s.N == 0 {
		return s
	}
	s.Sorted = append([]float64(nil), values...)
	sort.Float64s(s.Sorted)
	s.Min, s.Max = s.Sorted[0], s.Sorted[s.N-1]

	var sum, sum2 float64
	logs := make([]float64, s.N)
	for i, v := range values {
		sum += v
		sum2 += v * v
		s.counts[v]++
		switch {
		case v == 0:
			s.NZero++
		case v < 0:
			s.NNeg++
		default:
			s.NPos++
		}
		logs[i] = math.Log1p(math.Abs(v))
	}
	s.Sum = sum
	n := float64(s.N)
	s.Mean = sum / n
	s.Var = sum2/n - s.Mean*s.Mean
	if s.Var < 0 {
		s.Var = 0
	}
	s.Std = math.Sqrt(s.Var)
	s.NUnique = len(s.counts)

	if s.Std > 0 {
		var m3, m4 float64
		for _, v := range values {
			d := (v - s.Mean) / s.Std
			m3 += d * d * d
			m4 += d * d * d * d
		}
		s.Skew = m3 / n
		s.Kurt = m4/n - 3
	}
	s.LogMean, s.LogStd, s.LogSkew, s.LogKurt = refMoments(logs)
	return s
}

func refMoments(xs []float64) (mean, std, skew, kurt float64) {
	n := float64(len(xs))
	if n == 0 {
		return
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean = sum / n
	var v2 float64
	for _, v := range xs {
		d := v - mean
		v2 += d * d
	}
	std = math.Sqrt(v2 / n)
	if std > 0 {
		var m3, m4 float64
		for _, v := range xs {
			d := (v - mean) / std
			m3 += d * d * d
			m4 += d * d * d * d
		}
		skew = m3 / n
		kurt = m4/n - 3
	}
	return
}

// Quantile returns the q-th quantile (0..1) of the sorted data by linear
// interpolation. Returns 0 for empty summaries.
func (s *refSummary) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if s.N == 1 {
		return s.Sorted[0]
	}
	pos := q * float64(s.N-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= s.N {
		hi = s.N - 1
	}
	frac := pos - float64(lo)
	return s.Sorted[lo]*(1-frac) + s.Sorted[hi]*frac
}

func refSafeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refClamp keeps pathological magnitudes (heavy-tailed kurtosis, huge value
// ranges) from destabilizing downstream networks.
func refClamp(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Max(-1e6, math.Min(1e6, v))
}

func refFrac(s *refSummary, pred func(float64) bool) float64 {
	if s.N == 0 {
		return 0
	}
	c := 0
	for _, v := range s.Values {
		if pred(v) {
			c++
		}
	}
	return float64(c) / float64(s.N)
}

func refIsInt(v float64) bool { return v == math.Trunc(v) }

func refAdd(name string, fn func(*refSummary) float64) {
	refRegistry = append(refRegistry, refFeature{Name: name, Fn: fn})
}

func init() {
	refBuildRegistry()
	if len(refRegistry) != Dim {
		panic(fmt.Sprintf("features: refRegistry has %d entries, want %d", len(refRegistry), Dim))
	}
}

func refBuildRegistry() {
	// --- counts & cardinality (10) ---
	refAdd("count", func(s *refSummary) float64 { return float64(s.N) })
	refAdd("log_count", func(s *refSummary) float64 { return math.Log1p(float64(s.N)) })
	refAdd("n_unique", func(s *refSummary) float64 { return float64(s.NUnique) })
	refAdd("log_n_unique", func(s *refSummary) float64 { return math.Log1p(float64(s.NUnique)) })
	refAdd("unique_ratio", func(s *refSummary) float64 { return refSafeDiv(float64(s.NUnique), float64(s.N)) })
	refAdd("n_zero", func(s *refSummary) float64 { return float64(s.NZero) })
	refAdd("frac_zero", func(s *refSummary) float64 { return refSafeDiv(float64(s.NZero), float64(s.N)) })
	refAdd("frac_negative", func(s *refSummary) float64 { return refSafeDiv(float64(s.NNeg), float64(s.N)) })
	refAdd("frac_positive", func(s *refSummary) float64 { return refSafeDiv(float64(s.NPos), float64(s.N)) })
	refAdd("all_unique", func(s *refSummary) float64 { return refBoolF(s.N > 0 && s.NUnique == s.N) })

	// --- raw refMoments (8) ---
	refAdd("mean", func(s *refSummary) float64 { return refClamp(s.Mean) })
	refAdd("variance", func(s *refSummary) float64 { return refClamp(s.Var) })
	refAdd("std", func(s *refSummary) float64 { return refClamp(s.Std) })
	refAdd("skewness", func(s *refSummary) float64 { return refClamp(s.Skew) })
	refAdd("kurtosis", func(s *refSummary) float64 { return refClamp(s.Kurt) })
	refAdd("coef_variation", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Std, math.Abs(s.Mean))) })
	refAdd("mean_abs", func(s *refSummary) float64 {
		var t float64
		for _, v := range s.Values {
			t += math.Abs(v)
		}
		return refClamp(refSafeDiv(t, float64(s.N)))
	})
	refAdd("rms", func(s *refSummary) float64 {
		var t float64
		for _, v := range s.Values {
			t += v * v
		}
		return refClamp(math.Sqrt(refSafeDiv(t, float64(s.N))))
	})

	// --- robust stats (6) ---
	refAdd("median", func(s *refSummary) float64 { return refClamp(s.Quantile(0.5)) })
	refAdd("mad", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		med := s.Quantile(0.5)
		devs := make([]float64, s.N)
		for i, v := range s.Values {
			devs[i] = math.Abs(v - med)
		}
		sort.Float64s(devs)
		return refClamp((&refSummary{Sorted: devs, N: len(devs)}).Quantile(0.5))
	})
	refAdd("iqr", func(s *refSummary) float64 { return refClamp(s.Quantile(0.75) - s.Quantile(0.25)) })
	refAdd("trimmed_mean_10", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		lo, hi := int(0.1*float64(s.N)), s.N-int(0.1*float64(s.N))
		if lo >= hi {
			return refClamp(s.Mean)
		}
		var t float64
		for _, v := range s.Sorted[lo:hi] {
			t += v
		}
		return refClamp(t / float64(hi-lo))
	})
	refAdd("midhinge", func(s *refSummary) float64 { return refClamp((s.Quantile(0.25) + s.Quantile(0.75)) / 2) })
	refAdd("range_over_iqr", func(s *refSummary) float64 {
		return refClamp(refSafeDiv(s.Max-s.Min, s.Quantile(0.75)-s.Quantile(0.25)))
	})

	// --- extremes (6) ---
	refAdd("min", func(s *refSummary) float64 { return refClamp(s.Min) })
	refAdd("max", func(s *refSummary) float64 { return refClamp(s.Max) })
	refAdd("range", func(s *refSummary) float64 { return refClamp(s.Max - s.Min) })
	refAdd("abs_max", func(s *refSummary) float64 { return refClamp(math.Max(math.Abs(s.Min), math.Abs(s.Max))) })
	refAdd("mid_range", func(s *refSummary) float64 { return refClamp((s.Min + s.Max) / 2) })
	refAdd("log_range", func(s *refSummary) float64 { return math.Log1p(math.Abs(s.Max - s.Min)) })

	// --- quantiles (17) ---
	for _, q := range []float64{0.01, 0.025, 0.05, 0.10, 0.20, 0.25, 0.30, 0.40, 0.50, 0.60, 0.70, 0.75, 0.80, 0.90, 0.95, 0.975, 0.99} {
		q := q
		refAdd(fmt.Sprintf("p%g", q*100), func(s *refSummary) float64 { return refClamp(s.Quantile(q)) })
	}

	// --- z-scored quantiles (10) ---
	for _, q := range []float64{0.05, 0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90, 0.95, 0.99} {
		q := q
		refAdd(fmt.Sprintf("z_p%g", q*100), func(s *refSummary) float64 {
			return refClamp(refSafeDiv(s.Quantile(q)-s.Mean, s.Std))
		})
	}

	// --- quantile shape ratios (5) ---
	refAdd("quartile_skew", func(s *refSummary) float64 {
		q1, q2, q3 := s.Quantile(0.25), s.Quantile(0.5), s.Quantile(0.75)
		return refClamp(refSafeDiv(q3+q1-2*q2, q3-q1))
	})
	refAdd("decile_range_ratio", func(s *refSummary) float64 {
		return refClamp(refSafeDiv(s.Quantile(0.9)-s.Quantile(0.1), s.Max-s.Min))
	})
	refAdd("p99_over_p50", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Quantile(0.99), s.Quantile(0.5))) })
	refAdd("p50_over_p1", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Quantile(0.5), s.Quantile(0.01))) })
	refAdd("mean_over_median", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Mean, s.Quantile(0.5))) })

	// --- log-domain refMoments (6) ---
	refAdd("log_mean", func(s *refSummary) float64 { return refClamp(s.LogMean) })
	refAdd("log_std", func(s *refSummary) float64 { return refClamp(s.LogStd) })
	refAdd("log_skew", func(s *refSummary) float64 { return refClamp(s.LogSkew) })
	refAdd("log_kurt", func(s *refSummary) float64 { return refClamp(s.LogKurt) })
	refAdd("frac_abs_gt_1", func(s *refSummary) float64 { return refFrac(s, func(v float64) bool { return math.Abs(v) > 1 }) })
	refAdd("geo_mean_pos", func(s *refSummary) float64 {
		var t float64
		c := 0
		for _, v := range s.Values {
			if v > 0 {
				t += math.Log(v)
				c++
			}
		}
		if c == 0 {
			return 0
		}
		return refClamp(math.Exp(t / float64(c)))
	})

	// --- integrality & divisibility (8) ---
	refAdd("frac_integer", func(s *refSummary) float64 { return refFrac(s, refIsInt) })
	refAdd("frac_half_integer", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return refIsInt(v*2) && !refIsInt(v) })
	})
	refAdd("mean_decimal_places", func(s *refSummary) float64 {
		var t float64
		for _, d := range s.decimals() {
			t += float64(d)
		}
		return refSafeDiv(t, float64(s.N))
	})
	refAdd("max_decimal_places", func(s *refSummary) float64 {
		mx := 0
		for _, d := range s.decimals() {
			if d > mx {
				mx = d
			}
		}
		return float64(mx)
	})
	refAdd("frac_le2_decimals", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		c := 0
		for _, d := range s.decimals() {
			if d <= 2 {
				c++
			}
		}
		return float64(c) / float64(s.N)
	})
	refAdd("frac_mult_5", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return refIsInt(v) && math.Mod(math.Abs(v), 5) == 0 })
	})
	refAdd("frac_mult_10", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return refIsInt(v) && math.Mod(math.Abs(v), 10) == 0 })
	})
	refAdd("frac_mult_100", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return refIsInt(v) && math.Mod(math.Abs(v), 100) == 0 })
	})

	// --- leading digit (Benford) distribution (11) ---
	for d := 1; d <= 9; d++ {
		d := d
		refAdd(fmt.Sprintf("lead_digit_%d", d), func(s *refSummary) float64 {
			return refFrac(s, func(v float64) bool { return refLeadingDigit(v) == d })
		})
	}
	refAdd("benford_chi2", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		var chi2 float64
		for d := 1; d <= 9; d++ {
			obs := refFrac(s, func(v float64) bool { return refLeadingDigit(v) == d })
			exp := math.Log10(1 + 1/float64(d))
			chi2 += (obs - exp) * (obs - exp) / exp
		}
		return refClamp(chi2)
	})
	refAdd("frac_no_lead_digit", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return refLeadingDigit(v) == 0 })
	})

	// --- digit-count histogram (10) ---
	for d := 1; d <= 9; d++ {
		d := d
		refAdd(fmt.Sprintf("digits_%d", d), func(s *refSummary) float64 {
			return refFrac(s, func(v float64) bool { return refIntDigits(v) == d })
		})
	}
	refAdd("digits_10plus", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return refIntDigits(v) >= 10 })
	})

	// --- sequence / sortedness (10) ---
	refAdd("frac_ascending_pairs", func(s *refSummary) float64 { return refPairFrac(s, func(a, b float64) bool { return b > a }) })
	refAdd("frac_descending_pairs", func(s *refSummary) float64 { return refPairFrac(s, func(a, b float64) bool { return b < a }) })
	refAdd("frac_equal_pairs", func(s *refSummary) float64 { return refPairFrac(s, func(a, b float64) bool { return b == a }) })
	refAdd("is_monotonic_inc", func(s *refSummary) float64 {
		return refBoolF(s.N > 1 && refPairFrac(s, func(a, b float64) bool { return b >= a }) == 1)
	})
	refAdd("is_monotonic_dec", func(s *refSummary) float64 {
		return refBoolF(s.N > 1 && refPairFrac(s, func(a, b float64) bool { return b <= a }) == 1)
	})
	refAdd("autocorr_lag1", func(s *refSummary) float64 {
		if s.N < 2 || s.Std == 0 {
			return 0
		}
		var t float64
		for i := 0; i+1 < s.N; i++ {
			t += (s.Values[i] - s.Mean) * (s.Values[i+1] - s.Mean)
		}
		return refClamp(t / (float64(s.N-1) * s.Var))
	})
	refAdd("mean_abs_diff", func(s *refSummary) float64 {
		if s.N < 2 {
			return 0
		}
		var t float64
		for i := 0; i+1 < s.N; i++ {
			t += math.Abs(s.Values[i+1] - s.Values[i])
		}
		return refClamp(t / float64(s.N-1))
	})
	refAdd("std_diff", func(s *refSummary) float64 {
		if s.N < 2 {
			return 0
		}
		diffs := make([]float64, s.N-1)
		for i := range diffs {
			diffs[i] = s.Values[i+1] - s.Values[i]
		}
		_, std, _, _ := refMoments(diffs)
		return refClamp(std)
	})
	refAdd("frac_constant_diff", func(s *refSummary) float64 {
		if s.N < 3 {
			return 0
		}
		c := 0
		for i := 0; i+2 < s.N; i++ {
			if s.Values[i+1]-s.Values[i] == s.Values[i+2]-s.Values[i+1] {
				c++
			}
		}
		return float64(c) / float64(s.N-2)
	})
	refAdd("direction_changes_ratio", func(s *refSummary) float64 {
		if s.N < 3 {
			return 0
		}
		c := 0
		for i := 0; i+2 < s.N; i++ {
			d1, d2 := s.Values[i+1]-s.Values[i], s.Values[i+2]-s.Values[i+1]
			if d1*d2 < 0 {
				c++
			}
		}
		return float64(c) / float64(s.N-2)
	})

	// --- outliers (6) ---
	refAdd("frac_beyond_1_5iqr", refFracBeyondIQR(1.5))
	refAdd("frac_beyond_3iqr", refFracBeyondIQR(3))
	refAdd("frac_beyond_2std", refFracBeyondStd(2))
	refAdd("frac_beyond_3std", refFracBeyondStd(3))
	refAdd("max_z", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Max-s.Mean, s.Std)) })
	refAdd("min_z", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Min-s.Mean, s.Std)) })

	// --- entropy & concentration (8) ---
	refAdd("entropy_10bins", func(s *refSummary) float64 { return refBinEntropy(s, 10) })
	refAdd("entropy_norm_10bins", func(s *refSummary) float64 { return refSafeDiv(refBinEntropy(s, 10), math.Log(10)) })
	// sortedCounts yields the multiplicity of each distinct value in
	// ascending value order. Entropy-style features must accumulate in a
	// deterministic order: ranging over the counts map would perturb the
	// float sum at ulp level between calls, breaking the inference
	// engine's bit-identical batching contract.
	sortedCounts := func(s *refSummary) []int {
		if s.N == 0 {
			return nil
		}
		var out []int
		run := 1
		for i := 1; i < len(s.Sorted); i++ {
			if s.Sorted[i] == s.Sorted[i-1] {
				run++
			} else {
				out = append(out, run)
				run = 1
			}
		}
		return append(out, run)
	}
	refAdd("value_entropy", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		var h float64
		for _, c := range sortedCounts(s) {
			p := float64(c) / float64(s.N)
			h -= p * math.Log(p)
		}
		return refClamp(h)
	})
	refAdd("value_entropy_norm", func(s *refSummary) float64 {
		if s.NUnique <= 1 {
			return 0
		}
		var h float64
		for _, c := range sortedCounts(s) {
			p := float64(c) / float64(s.N)
			h -= p * math.Log(p)
		}
		return refClamp(h / math.Log(float64(s.NUnique)))
	})
	refAdd("gini", func(s *refSummary) float64 {
		// Gini over shifted-positive values.
		if s.N == 0 {
			return 0
		}
		shift := 0.0
		if s.Min < 0 {
			shift = -s.Min
		}
		var num, den float64
		for i, v := range s.Sorted {
			num += float64(2*(i+1)-s.N-1) * (v + shift)
			den += v + shift
		}
		return refClamp(refSafeDiv(num, float64(s.N)*den))
	})
	refAdd("mode_frac", func(s *refSummary) float64 {
		mx := 0
		for _, c := range s.counts {
			if c > mx {
				mx = c
			}
		}
		return refSafeDiv(float64(mx), float64(s.N))
	})
	refAdd("top1_share", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		var absSum float64
		for _, v := range s.Values {
			absSum += math.Abs(v)
		}
		return refClamp(refSafeDiv(math.Max(math.Abs(s.Min), math.Abs(s.Max)), absSum))
	})
	refAdd("uniform_ks", func(s *refSummary) float64 {
		// KS distance to Uniform(min,max)
		if s.N == 0 || s.Max == s.Min {
			return 0
		}
		var d float64
		for i, v := range s.Sorted {
			emp := float64(i+1) / float64(s.N)
			th := (v - s.Min) / (s.Max - s.Min)
			if dd := math.Abs(emp - th); dd > d {
				d = dd
			}
		}
		return d
	})

	// --- gap structure over sorted values (8) ---
	refAdd("mean_gap", refGapStat(func(mean, std, mx, rng float64) float64 { return refClamp(mean) }))
	refAdd("std_gap", refGapStat(func(mean, std, mx, rng float64) float64 { return refClamp(std) }))
	refAdd("cv_gap", refGapStat(func(mean, std, mx, rng float64) float64 { return refClamp(refSafeDiv(std, mean)) }))
	refAdd("max_gap_frac", refGapStat(func(mean, std, mx, rng float64) float64 { return refClamp(refSafeDiv(mx, rng)) }))
	refAdd("frac_duplicates", func(s *refSummary) float64 {
		return refSafeDiv(float64(s.N-s.NUnique), float64(s.N))
	})
	refAdd("longest_run_frac", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		best, cur := 1, 1
		for i := 1; i < s.N; i++ {
			if s.Sorted[i] == s.Sorted[i-1] {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				cur = 1
			}
		}
		return float64(best) / float64(s.N)
	})
	refAdd("distinct_gaps_ratio", func(s *refSummary) float64 {
		if s.N < 2 {
			return 0
		}
		gaps := make(map[float64]struct{})
		for i := 1; i < s.N; i++ {
			gaps[s.Sorted[i]-s.Sorted[i-1]] = struct{}{}
		}
		return float64(len(gaps)) / float64(s.N-1)
	})
	refAdd("min_gap_nonzero", func(s *refSummary) float64 {
		best := math.Inf(1)
		for i := 1; i < s.N; i++ {
			if g := s.Sorted[i] - s.Sorted[i-1]; g > 0 && g < best {
				best = g
			}
		}
		if math.IsInf(best, 1) {
			return 0
		}
		return refClamp(best)
	})

	// --- range-membership detectors (20) ---
	addRange := func(name string, pred func(float64) bool) {
		refAdd("frac_"+name, func(s *refSummary) float64 { return refFrac(s, pred) })
	}
	addRange("in_01", func(v float64) bool { return v >= 0 && v <= 1 })
	addRange("in_0_100", func(v float64) bool { return v >= 0 && v <= 100 })
	addRange("in_0_1k", func(v float64) bool { return v >= 0 && v <= 1000 })
	addRange("in_0_1m", func(v float64) bool { return v >= 0 && v <= 1e6 })
	addRange("year_like", func(v float64) bool { return refIsInt(v) && v >= 1900 && v <= 2100 })
	addRange("month_like", func(v float64) bool { return refIsInt(v) && v >= 1 && v <= 12 })
	addRange("day_like", func(v float64) bool { return refIsInt(v) && v >= 1 && v <= 31 })
	addRange("hour_like", func(v float64) bool { return refIsInt(v) && v >= 0 && v <= 23 })
	addRange("lat_like", func(v float64) bool { return v >= -90 && v <= 90 && !refIsInt(v) })
	addRange("lon_like", func(v float64) bool { return v >= -180 && v <= 180 && !refIsInt(v) })
	addRange("percent_like", func(v float64) bool { return v >= 0 && v <= 100 && !refIsInt(v) })
	addRange("age_like", func(v float64) bool { return refIsInt(v) && v >= 0 && v <= 120 })
	addRange("small_int", func(v float64) bool { return refIsInt(v) && v >= 0 && v <= 10 })
	addRange("gt_1e6", func(v float64) bool { return math.Abs(v) > 1e6 })
	addRange("lt_1_abs", func(v float64) bool { return math.Abs(v) < 1 })
	refAdd("all_in_01", func(s *refSummary) float64 { return refBoolF(s.N > 0 && s.Min >= 0 && s.Max <= 1) })
	refAdd("all_positive", func(s *refSummary) float64 { return refBoolF(s.N > 0 && s.Min > 0) })
	refAdd("all_nonneg", func(s *refSummary) float64 { return refBoolF(s.N > 0 && s.Min >= 0) })
	refAdd("all_negative", func(s *refSummary) float64 { return refBoolF(s.N > 0 && s.Max < 0) })
	refAdd("all_integer", func(s *refSummary) float64 {
		return refBoolF(s.N > 0 && refFrac(s, refIsInt) == 1)
	})

	// --- string-form features of the rendered values (10) ---
	strStat := func(name string, fn func(lens []int, strs []string) float64) {
		refAdd(name, func(s *refSummary) float64 {
			return fn(s.strLengths(), s.Strs())
		})
	}
	strStat("mean_str_len", func(lens []int, _ []string) float64 {
		t := 0
		for _, l := range lens {
			t += l
		}
		return refSafeDiv(float64(t), float64(len(lens)))
	})
	strStat("max_str_len", func(lens []int, _ []string) float64 {
		mx := 0
		for _, l := range lens {
			if l > mx {
				mx = l
			}
		}
		return float64(mx)
	})
	strStat("min_str_len", func(lens []int, _ []string) float64 {
		if len(lens) == 0 {
			return 0
		}
		mn := lens[0]
		for _, l := range lens {
			if l < mn {
				mn = l
			}
		}
		return float64(mn)
	})
	strStat("std_str_len", func(lens []int, _ []string) float64 {
		xs := make([]float64, len(lens))
		for i, l := range lens {
			xs[i] = float64(l)
		}
		_, std, _, _ := refMoments(xs)
		return std
	})
	strStat("distinct_str_len_ratio", func(lens []int, _ []string) float64 {
		set := map[int]struct{}{}
		for _, l := range lens {
			set[l] = struct{}{}
		}
		return refSafeDiv(float64(len(set)), float64(len(lens)))
	})
	strStat("frac_contains_decimal", func(_ []int, strs []string) float64 {
		c := 0
		for _, s := range strs {
			if strings.ContainsRune(s, '.') {
				c++
			}
		}
		return refSafeDiv(float64(c), float64(len(strs)))
	})
	strStat("frac_scientific", func(_ []int, strs []string) float64 {
		c := 0
		for _, s := range strs {
			if strings.ContainsAny(s, "eE") {
				c++
			}
		}
		return refSafeDiv(float64(c), float64(len(strs)))
	})
	strStat("frac_minus_sign", func(_ []int, strs []string) float64 {
		c := 0
		for _, s := range strs {
			if strings.HasPrefix(s, "-") {
				c++
			}
		}
		return refSafeDiv(float64(c), float64(len(strs)))
	})
	refAdd("frac_trailing_zero_int", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool {
			return refIsInt(v) && v != 0 && math.Mod(math.Abs(v), 10) == 0
		})
	})
	refAdd("mean_int_digits", func(s *refSummary) float64 {
		var t float64
		for _, v := range s.Values {
			t += float64(refIntDigits(v))
		}
		return refSafeDiv(t, float64(s.N))
	})

	// --- ratio / tail structure (8) ---
	refAdd("ratio_max_mean", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Max, s.Mean)) })
	refAdd("ratio_min_mean", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Min, s.Mean)) })
	refAdd("ratio_std_range", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Std, s.Max-s.Min)) })
	refAdd("frac_gt_mean", func(s *refSummary) float64 {
		m := s.Mean
		return refFrac(s, func(v float64) bool { return v > m })
	})
	refAdd("p95_over_p50", func(s *refSummary) float64 { return refClamp(refSafeDiv(s.Quantile(0.95), s.Quantile(0.5))) })
	refAdd("top5pct_share", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		k := s.N / 20
		if k == 0 {
			k = 1
		}
		var top, total float64
		for _, v := range s.Sorted {
			total += math.Abs(v)
		}
		for _, v := range s.Sorted[s.N-k:] {
			top += math.Abs(v)
		}
		return refClamp(refSafeDiv(top, total))
	})
	refAdd("bottom5pct_share", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		k := s.N / 20
		if k == 0 {
			k = 1
		}
		var bot, total float64
		for _, v := range s.Sorted {
			total += math.Abs(v)
		}
		for _, v := range s.Sorted[:k] {
			bot += math.Abs(v)
		}
		return refClamp(refSafeDiv(bot, total))
	})
	refAdd("heavy_tail_score", func(s *refSummary) float64 {
		// ratio of 99th-percentile deviation to IQR — large for heavy tails
		return refClamp(refSafeDiv(s.Quantile(0.99)-s.Quantile(0.5), s.Quantile(0.75)-s.Quantile(0.25)))
	})

	// --- positional / trend (5) ---
	refAdd("first_value_z", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		return refClamp(refSafeDiv(s.Values[0]-s.Mean, s.Std))
	})
	refAdd("last_value_z", func(s *refSummary) float64 {
		if s.N == 0 {
			return 0
		}
		return refClamp(refSafeDiv(s.Values[s.N-1]-s.Mean, s.Std))
	})
	refAdd("linear_slope", func(s *refSummary) float64 {
		if s.N < 2 {
			return 0
		}
		// least-squares slope of value against row index
		nx := float64(s.N)
		meanX := (nx - 1) / 2
		var sxy, sxx float64
		for i, v := range s.Values {
			dx := float64(i) - meanX
			sxy += dx * (v - s.Mean)
			sxx += dx * dx
		}
		return refClamp(refSafeDiv(sxy, sxx))
	})
	refAdd("sign_changes_ratio", func(s *refSummary) float64 {
		if s.N < 2 {
			return 0
		}
		c := 0
		for i := 0; i+1 < s.N; i++ {
			if s.Values[i]*s.Values[i+1] < 0 {
				c++
			}
		}
		return float64(c) / float64(s.N-1)
	})
	refAdd("frac_abs_lt_eps", func(s *refSummary) float64 {
		return refFrac(s, func(v float64) bool { return math.Abs(v) < 1e-9 })
	})

	// --- normalized 10-bin histogram of the value range (10) ---
	for b := 0; b < 10; b++ {
		b := b
		refAdd(fmt.Sprintf("hist10_%d", b), func(s *refSummary) float64 {
			if s.N == 0 || s.Max == s.Min {
				return 0
			}
			w := (s.Max - s.Min) / 10
			c := 0
			for _, v := range s.Values {
				bin := int((v - s.Min) / w)
				if bin >= 10 {
					bin = 9
				}
				if bin == b {
					c++
				}
			}
			return float64(c) / float64(s.N)
		})
	}

	// --- z-scored decile segment means (10) ---
	for d := 0; d < 10; d++ {
		d := d
		refAdd(fmt.Sprintf("decile_mean_z_%d", d), func(s *refSummary) float64 {
			if s.N == 0 || s.Std == 0 {
				return 0
			}
			lo := d * s.N / 10
			hi := (d + 1) * s.N / 10
			if hi <= lo {
				hi = lo + 1
			}
			if hi > s.N {
				hi = s.N
			}
			var t float64
			for _, v := range s.Sorted[lo:hi] {
				t += v
			}
			return refClamp((t/float64(hi-lo) - s.Mean) / s.Std)
		})
	}
}

func refBoolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func refPairFrac(s *refSummary, pred func(a, b float64) bool) float64 {
	if s.N < 2 {
		return 0
	}
	c := 0
	for i := 0; i+1 < s.N; i++ {
		if pred(s.Values[i], s.Values[i+1]) {
			c++
		}
	}
	return float64(c) / float64(s.N-1)
}

func refFracBeyondIQR(k float64) func(*refSummary) float64 {
	return func(s *refSummary) float64 {
		q1, q3 := s.Quantile(0.25), s.Quantile(0.75)
		iqr := q3 - q1
		lo, hi := q1-k*iqr, q3+k*iqr
		return refFrac(s, func(v float64) bool { return v < lo || v > hi })
	}
}

func refFracBeyondStd(k float64) func(*refSummary) float64 {
	return func(s *refSummary) float64 {
		if s.Std == 0 {
			return 0
		}
		lo, hi := s.Mean-k*s.Std, s.Mean+k*s.Std
		return refFrac(s, func(v float64) bool { return v < lo || v > hi })
	}
}

func refGapStat(pick func(mean, std, mx, rng float64) float64) func(*refSummary) float64 {
	return func(s *refSummary) float64 {
		if s.N < 2 {
			return 0
		}
		gaps := make([]float64, s.N-1)
		mx := 0.0
		for i := range gaps {
			gaps[i] = s.Sorted[i+1] - s.Sorted[i]
			if gaps[i] > mx {
				mx = gaps[i]
			}
		}
		mean, std, _, _ := refMoments(gaps)
		return pick(mean, std, mx, s.Max-s.Min)
	}
}

func refBinEntropy(s *refSummary, bins int) float64 {
	if s.N == 0 || s.Max == s.Min {
		return 0
	}
	counts := make([]int, bins)
	w := (s.Max - s.Min) / float64(bins)
	for _, v := range s.Values {
		b := int((v - s.Min) / w)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(s.N)
		h -= p * math.Log(p)
	}
	return h
}

func refLeadingDigit(v float64) int {
	v = math.Abs(v)
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	for v >= 10 {
		v /= 10
	}
	for v < 1 {
		v *= 10
	}
	return int(v)
}

func refIntDigits(v float64) int {
	a := math.Abs(math.Trunc(v))
	if a < 1 {
		return 0
	}
	d := 0
	for a >= 1 {
		a /= 10
		d++
	}
	return d
}

func refDecimalPlaces(v float64) int {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return len(s) - i - 1
	}
	return 0
}

// refExtract returns the Dim-long feature vector of values.
func refExtract(values []float64) []float64 {
	s := refSummarize(values)
	out := make([]float64, len(refRegistry))
	for i, f := range refRegistry {
		out[i] = f.Fn(s)
	}
	return out
}

// refExtractNormalized returns the feature vector with each entry squashed via
// sign(x)·log1p(|x|) — the normalization applied before the subnetwork so
// raw magnitudes (e.g. max=1e6) don't dominate training.
func refExtractNormalized(values []float64) []float64 {
	out := refExtract(values)
	for i, v := range out {
		out[i] = math.Copysign(math.Log1p(math.Abs(v)), v)
	}
	return out
}
