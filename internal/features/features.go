// Package features extracts the paper's 192 statistical features of
// numerical columns (§2.1) — the vector carried by each V_ncf node and fed
// through the numeric subnetwork.
//
// The published feature list lives in the paper's technical report; this
// implementation reconstructs it from the families the paper and its
// Sherlock ancestry describe: moments, quantiles, sign/integrality
// structure, digit and Benford statistics, sortedness, gaps, outliers,
// entropy, and range-membership detectors for common real-world numeric
// types (years, months, latitudes, percentages, …). Every feature has a
// stable name and position (Names); the package test pins the count to
// exactly 192.
//
// All 192 features come from one summary of the column: one sort, then a
// few passes (the values in row order, adjacent rows, the sorted values)
// that gather every count, sum and order statistic the features read, with
// each value rendered at most once. Every float accumulator adds its terms
// in the order the feature's definition does, and the rest are integer
// counts, so fusing the passes changes no bit: the package tests hold the
// vector to a one-closure-per-feature reference, bit for bit.
//
// The input domain is finite values; the serving path and the CSV reader
// reject NaN and ±Inf cells. Extract still returns for any input, with
// every entry finite when the input is finite.
package features

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
)

// Dim is the number of features extracted per numeric column.
const Dim = 192

// names lists the features in vector order; the [Dim] type check below
// fails the build if an entry goes missing.
var names = [...]string{
	// counts & cardinality (10)
	"count", "log_count", "n_unique", "log_n_unique", "unique_ratio",
	"n_zero", "frac_zero", "frac_negative", "frac_positive", "all_unique",
	// raw moments (8)
	"mean", "variance", "std", "skewness", "kurtosis", "coef_variation", "mean_abs", "rms",
	// robust stats (6)
	"median", "mad", "iqr", "trimmed_mean_10", "midhinge", "range_over_iqr",
	// extremes (6)
	"min", "max", "range", "abs_max", "mid_range", "log_range",
	// quantiles (17), at quantileLevels
	"p1", "p2.5", "p5", "p10", "p20", "p25", "p30", "p40", "p50",
	"p60", "p70", "p75", "p80", "p90", "p95", "p97.5", "p99",
	// z-scored quantiles (10), at zLevels
	"z_p5", "z_p10", "z_p25", "z_p40", "z_p50", "z_p60", "z_p75", "z_p90", "z_p95", "z_p99",
	// quantile shape ratios (5)
	"quartile_skew", "decile_range_ratio", "p99_over_p50", "p50_over_p1", "mean_over_median",
	// log-domain moments (6)
	"log_mean", "log_std", "log_skew", "log_kurt", "frac_abs_gt_1", "geo_mean_pos",
	// integrality & divisibility (8)
	"frac_integer", "frac_half_integer", "mean_decimal_places", "max_decimal_places",
	"frac_le2_decimals", "frac_mult_5", "frac_mult_10", "frac_mult_100",
	// leading digit (Benford) distribution (11)
	"lead_digit_1", "lead_digit_2", "lead_digit_3", "lead_digit_4", "lead_digit_5",
	"lead_digit_6", "lead_digit_7", "lead_digit_8", "lead_digit_9", "benford_chi2", "frac_no_lead_digit",
	// digit-count histogram (10)
	"digits_1", "digits_2", "digits_3", "digits_4", "digits_5",
	"digits_6", "digits_7", "digits_8", "digits_9", "digits_10plus",
	// sequence / sortedness (10)
	"frac_ascending_pairs", "frac_descending_pairs", "frac_equal_pairs", "is_monotonic_inc",
	"is_monotonic_dec", "autocorr_lag1", "mean_abs_diff", "std_diff", "frac_constant_diff",
	"direction_changes_ratio",
	// outliers (6)
	"frac_beyond_1_5iqr", "frac_beyond_3iqr", "frac_beyond_2std", "frac_beyond_3std", "max_z", "min_z",
	// entropy & concentration (8)
	"entropy_10bins", "entropy_norm_10bins", "value_entropy", "value_entropy_norm",
	"gini", "mode_frac", "top1_share", "uniform_ks",
	// gap structure over sorted values (8)
	"mean_gap", "std_gap", "cv_gap", "max_gap_frac", "frac_duplicates", "longest_run_frac",
	"distinct_gaps_ratio", "min_gap_nonzero",
	// range-membership detectors (20)
	"frac_in_01", "frac_in_0_100", "frac_in_0_1k", "frac_in_0_1m", "frac_year_like",
	"frac_month_like", "frac_day_like", "frac_hour_like", "frac_lat_like", "frac_lon_like",
	"frac_percent_like", "frac_age_like", "frac_small_int", "frac_gt_1e6", "frac_lt_1_abs",
	"all_in_01", "all_positive", "all_nonneg", "all_negative", "all_integer",
	// string-form features of the rendered values (10)
	"mean_str_len", "max_str_len", "min_str_len", "std_str_len", "distinct_str_len_ratio",
	"frac_contains_decimal", "frac_scientific", "frac_minus_sign", "frac_trailing_zero_int",
	"mean_int_digits",
	// ratio / tail structure (8)
	"ratio_max_mean", "ratio_min_mean", "ratio_std_range", "frac_gt_mean", "p95_over_p50",
	"top5pct_share", "bottom5pct_share", "heavy_tail_score",
	// positional / trend (5)
	"first_value_z", "last_value_z", "linear_slope", "sign_changes_ratio", "frac_abs_lt_eps",
	// normalized 10-bin histogram of the value range (10)
	"hist10_0", "hist10_1", "hist10_2", "hist10_3", "hist10_4",
	"hist10_5", "hist10_6", "hist10_7", "hist10_8", "hist10_9",
	// z-scored decile segment means (10)
	"decile_mean_z_0", "decile_mean_z_1", "decile_mean_z_2", "decile_mean_z_3", "decile_mean_z_4",
	"decile_mean_z_5", "decile_mean_z_6", "decile_mean_z_7", "decile_mean_z_8", "decile_mean_z_9",
}

var _ [Dim]string = names

// quantileLevels are the levels of the 17 quantile features; the q*
// constants index them.
var quantileLevels = [...]float64{0.01, 0.025, 0.05, 0.10, 0.20, 0.25, 0.30, 0.40, 0.50, 0.60, 0.70, 0.75, 0.80, 0.90, 0.95, 0.975, 0.99}

const (
	q01, q025, q05, q10, q20, q25, q30, q40, q50 = 0, 1, 2, 3, 4, 5, 6, 7, 8
	q60, q70, q75, q80, q90, q95, q975, q99      = 9, 10, 11, 12, 13, 14, 15, 16
)

// zLevels index the quantiles the z-scored quantile features read.
var zLevels = [...]int{q05, q10, q25, q40, q50, q60, q75, q90, q95, q99}

// Names returns the feature names in vector order.
func Names() []string {
	return append([]string(nil), names[:]...)
}

// Extract returns the Dim-long feature vector of values. It never mutates
// the input.
func Extract(values []float64) []float64 {
	e := extractors.Get().(*extractor)
	out := e.appendFeatures(make([]float64, 0, Dim), values)
	extractors.Put(e)
	return out
}

// ExtractNormalized returns the feature vector with each entry squashed via
// sign(x)·log1p(|x|) — the normalization applied before the subnetwork so
// raw magnitudes (e.g. max=1e6) don't dominate training.
func ExtractNormalized(values []float64) []float64 {
	return AppendNormalized(make([]float64, 0, Dim), values)
}

// AppendNormalized appends ExtractNormalized(values) to dst and returns the
// extended slice; with room for Dim more values in dst it allocates nothing.
func AppendNormalized(dst, values []float64) []float64 {
	e := extractors.Get().(*extractor)
	start := len(dst)
	dst = e.appendFeatures(dst, values)
	extractors.Put(e)
	for i, v := range dst[start:] {
		switch v {
		case 0: // log1p(±0) = ±0, v itself
		case 1: // boolean features, and shares of a whole column
			dst[start+i] = log1pOne
		default:
			dst[start+i] = math.Copysign(math.Log1p(math.Abs(v)), v)
		}
	}
	return dst
}

// Logarithms the features take of constants, computed once.
var (
	log1pOne = math.Log1p(1)
	log10    = math.Log(10)
	// benfordShare[d] is Benford's share of leading digit d.
	benfordShare = func() (p [10]float64) {
		for d := 1; d <= 9; d++ {
			p[d] = math.Log10(1 + 1/float64(d))
		}
		return p
	}()
)

// extractor is the scratch storage of one column's summary, pooled so that
// a warm extraction allocates nothing.
type extractor struct {
	sorted []float64 // the values in ascending order
	aux    []float64 // log1p(|v|), then |v − median|, then the sorted-value gaps
	lens   []int     // the length of each value's shortest rendering
	str    []byte    // one value's shortest rendering
}

var extractors = sync.Pool{New: func() any { return new(extractor) }}

// appendFeatures appends the Dim raw features of vals to f.
func (e *extractor) appendFeatures(f, vals []float64) []float64 {
	n := len(vals)
	nf := float64(n)
	// share turns a count over the values into a fraction, pairShare one
	// over the n−1 adjacent pairs; both are 0 when there are no values or
	// pairs to count.
	share := func(c int) float64 {
		if n == 0 {
			return 0
		}
		return float64(c) / nf
	}
	pairShare := func(c int) float64 {
		if n < 2 {
			return 0
		}
		return float64(c) / float64(n-1)
	}

	// --- the summary: sort, sums and signs, moments, quantiles ---
	e.sorted = append(e.sorted[:0], vals...)
	sort.Float64s(e.sorted)
	sorted := e.sorted
	if cap(e.aux) < n {
		e.aux = make([]float64, n)
		e.lens = make([]int, n)
	}
	aux, lens := e.aux[:n], e.lens[:n]

	var minV, maxV, mean, variance, std, skew, kurt float64
	var sum2 float64
	var nZero, nNeg, nPos int
	if n > 0 {
		minV, maxV = sorted[0], sorted[n-1]
		var sum float64
		for i, v := range vals {
			sum += v
			sum2 += v * v
			switch {
			case v == 0:
				nZero++
			case v < 0:
				nNeg++
			default:
				nPos++
			}
			aux[i] = math.Log1p(math.Abs(v))
		}
		mean = sum / nf
		variance = sum2/nf - mean*mean
		if variance < 0 {
			variance = 0
		}
		std = math.Sqrt(variance)
		if std > 0 {
			var m3, m4 float64
			for _, v := range vals {
				d := (v - mean) / std
				m3 += d * d * d
				m4 += d * d * d * d
			}
			skew = m3 / nf
			kurt = m4/nf - 3
		}
	}
	logMean, logStd, logSkew, logKurt := moments(aux)

	var q [len(quantileLevels)]float64
	for i, lv := range quantileLevels {
		q[i] = quantile(sorted, lv)
	}

	// Runs of equal sorted values: the distinct count, the mode's count and
	// the value entropy, summed in ascending value order.
	var nUnique, longest int
	var valueEntropy float64
	for i, run := 1, 1; i <= n; i++ {
		if i < n && sorted[i] == sorted[i-1] {
			run++
			continue
		}
		nUnique++
		longest = max(longest, run)
		p := float64(run) / nf
		valueEntropy -= p * math.Log(p)
		run = 1
	}

	// --- one pass over the values in row order ---
	iqr := q[q75] - q[q25]
	lo15, hi15 := q[q25]-1.5*iqr, q[q75]+1.5*iqr
	lo3, hi3 := q[q25]-3*iqr, q[q75]+3*iqr
	lo2s, hi2s := mean-2*std, mean+2*std
	lo3s, hi3s := mean-3*std, mean+3*std
	histW := (maxV - minV) / 10
	meanX := (nf - 1) / 2
	var (
		absSum, geoSum, decSum, digitSum, sxy, sxx float64

		nAbsGt1, nGeo, nInt, nHalf, nLe2, decMax           int
		nMult5, nMult10, nMult100, nTrailZero              int
		lead, hist                                         [10]int
		digits                                             [11]int // [10] counts 10 or more
		nBeyond15, nBeyond3, nBeyond2s, nBeyond3s, nGtMean int
		nLtEps                                             int
		in01, in100, in1k, in1m, year, month, day, hour    int
		lat, lon, pct, age, smallInt, gt1e6, lt1           int

		strSum, strMax, nDot, nSci, nMinus int
		strMin                             = math.MaxInt
		strLenSet                          uint64 // bit l: some rendering has length l
	)
	for i, v := range vals {
		a := math.Abs(v)
		absSum += a
		if a > 1 {
			nAbsGt1++
		}
		if v > 0 {
			geoSum += math.Log(v)
			nGeo++
		}
		isI := isInt(v)
		if isI {
			nInt++
			m5, m10, m100 := multiples(a)
			if m5 {
				nMult5++
			}
			if m10 {
				nMult10++
				if v != 0 {
					nTrailZero++
				}
			}
			if m100 {
				nMult100++
			}
		} else if isInt(v * 2) {
			nHalf++
		}
		lead[leadingDigit(v)]++
		d := intDigits(v)
		digitSum += float64(d)
		digits[min(d, 10)]++

		l, dp, dot, sci, minus := e.render(v)
		lens[i] = l
		strSum += l
		strMax = max(strMax, l)
		strMin = min(strMin, l)
		strLenSet |= 1 << l // a float64's shortest rendering is at most 24 bytes
		if dot {
			nDot++
		}
		if sci {
			nSci++
		}
		if minus {
			nMinus++
		}
		decSum += float64(dp)
		decMax = max(decMax, dp)
		if dp <= 2 {
			nLe2++
		}

		if v < lo15 || v > hi15 {
			nBeyond15++
		}
		if v < lo3 || v > hi3 {
			nBeyond3++
		}
		if v < lo2s || v > hi2s {
			nBeyond2s++
		}
		if v < lo3s || v > hi3s {
			nBeyond3s++
		}
		if v > mean {
			nGtMean++
		}
		if a < 1e-9 {
			nLtEps++
		}
		if v >= 0 && v <= 1 {
			in01++
		}
		if v >= 0 && v <= 100 {
			in100++
		}
		if v >= 0 && v <= 1000 {
			in1k++
		}
		if v >= 0 && v <= 1e6 {
			in1m++
		}
		if isI && v >= 1900 && v <= 2100 {
			year++
		}
		if isI && v >= 1 && v <= 12 {
			month++
		}
		if isI && v >= 1 && v <= 31 {
			day++
		}
		if isI && v >= 0 && v <= 23 {
			hour++
		}
		if v >= -90 && v <= 90 && !isI {
			lat++
		}
		if v >= -180 && v <= 180 && !isI {
			lon++
		}
		if v >= 0 && v <= 100 && !isI {
			pct++
		}
		if isI && v >= 0 && v <= 120 {
			age++
		}
		if isI && v >= 0 && v <= 10 {
			smallInt++
		}
		if a > 1e6 {
			gt1e6++
		}
		if a < 1 {
			lt1++
		}
		if maxV != minV {
			hist[bin10((v-minV)/histW)]++
		}
		dx := float64(i) - meanX
		sxy += dx * (v - mean)
		sxx += dx * dx
	}
	if n == 0 {
		strMin = 0
	}

	// --- adjacent rows ---
	var nAsc, nDesc, nEq, nGe, nLe, nSignChange, nConstDiff, nDirChange int
	var autocorr, absDiffSum, diffSum float64
	for i := 0; i+1 < n; i++ {
		a, b := vals[i], vals[i+1]
		if b > a {
			nAsc++
		}
		if b < a {
			nDesc++
		}
		if b == a {
			nEq++
		}
		if b >= a {
			nGe++
		}
		if b <= a {
			nLe++
		}
		if vals[i]*vals[i+1] < 0 {
			nSignChange++
		}
		autocorr += (vals[i] - mean) * (vals[i+1] - mean)
		absDiffSum += math.Abs(vals[i+1] - vals[i])
		diffSum += vals[i+1] - vals[i]
		if i+2 < n {
			d1, d2 := vals[i+1]-vals[i], vals[i+2]-vals[i+1]
			if d1 == d2 {
				nConstDiff++
			}
			if d1*d2 < 0 {
				nDirChange++
			}
		}
	}
	var diffStd float64
	if n >= 2 {
		m := float64(n - 1)
		diffMean := diffSum / m
		var v2 float64
		for i := 0; i+1 < n; i++ {
			d := vals[i+1] - vals[i] - diffMean
			v2 += d * d
		}
		diffStd = math.Sqrt(v2 / m)
	}

	// --- the sorted values ---
	var gini, uniformKS, absSortedSum, top5, bottom5, trimmed float64
	k5 := max(n/20, 1)
	if n > 0 {
		shift := 0.0
		if minV < 0 {
			shift = -minV
		}
		var num, den float64
		for i, v := range sorted {
			num += float64(2*(i+1)-n-1) * (v + shift)
			den += v + shift
			absSortedSum += math.Abs(v)
			if maxV != minV {
				emp := float64(i+1) / nf
				th := (v - minV) / (maxV - minV)
				if dd := math.Abs(emp - th); dd > uniformKS {
					uniformKS = dd
				}
			}
		}
		gini = clamp(safeDiv(num, nf*den))
		for _, v := range sorted[n-k5:] {
			top5 += math.Abs(v)
		}
		for _, v := range sorted[:k5] {
			bottom5 += math.Abs(v)
		}
		lo, hi := int(0.1*nf), n-int(0.1*nf)
		if lo >= hi {
			trimmed = clamp(mean)
		} else {
			var t float64
			for _, v := range sorted[lo:hi] {
				t += v
			}
			trimmed = clamp(t / float64(hi-lo))
		}
	}

	// Median absolute deviation, over the values in row order.
	var mad float64
	if n > 0 {
		devs := aux
		for i, v := range vals {
			devs[i] = math.Abs(v - q[q50])
		}
		sort.Float64s(devs)
		mad = clamp(quantile(devs, 0.5))
	}

	// Gaps between adjacent sorted values.
	var gapMean, gapStd, gapMax float64
	distinctGaps := 0
	minGap := math.Inf(1)
	if n >= 2 {
		gaps := aux[:n-1]
		var gapSum float64
		for i := range gaps {
			g := sorted[i+1] - sorted[i]
			gaps[i] = g
			if g > gapMax {
				gapMax = g
			}
			if g > 0 && g < minGap {
				minGap = g
			}
			gapSum += g
		}
		m := float64(n - 1)
		gapMean = gapSum / m
		var v2 float64
		for _, g := range gaps {
			d := g - gapMean
			v2 += d * d
		}
		gapStd = math.Sqrt(v2 / m)
		// Distinct gaps as a set of float64 keys counts them: equal values
		// (±0 included) once, each NaN apart, as adjacent inequality does
		// once sorted.
		sort.Float64s(gaps)
		distinctGaps = 1
		for i := 1; i < len(gaps); i++ {
			if gaps[i] != gaps[i-1] {
				distinctGaps++
			}
		}
	}

	var binEntropy float64
	for _, c := range hist {
		if c > 0 {
			p := float64(c) / nf
			binEntropy -= p * math.Log(p)
		}
	}

	// --- the vector, in Names order ---
	f = append(f,
		// counts & cardinality
		nf, math.Log1p(nf), float64(nUnique), math.Log1p(float64(nUnique)),
		safeDiv(float64(nUnique), nf), float64(nZero), safeDiv(float64(nZero), nf),
		safeDiv(float64(nNeg), nf), safeDiv(float64(nPos), nf), boolF(n > 0 && nUnique == n),
		// raw moments
		clamp(mean), clamp(variance), clamp(std), clamp(skew), clamp(kurt),
		clamp(safeDiv(std, math.Abs(mean))), clamp(safeDiv(absSum, nf)), clamp(math.Sqrt(safeDiv(sum2, nf))),
		// robust stats
		clamp(q[q50]), mad, clamp(iqr), trimmed, clamp((q[q25]+q[q75])/2), clamp(safeDiv(maxV-minV, iqr)),
		// extremes
		clamp(minV), clamp(maxV), clamp(maxV-minV), clamp(math.Max(math.Abs(minV), math.Abs(maxV))),
		clamp((minV+maxV)/2), clamp(math.Log1p(math.Abs(maxV-minV))),
	)
	for _, v := range q {
		f = append(f, clamp(v))
	}
	for _, zi := range zLevels {
		f = append(f, clamp(safeDiv(q[zi]-mean, std)))
	}
	var benford float64
	if n > 0 {
		for d := 1; d <= 9; d++ {
			obs := float64(lead[d]) / nf
			exp := benfordShare[d]
			benford += (obs - exp) * (obs - exp) / exp
		}
	}
	var geo float64
	if nGeo > 0 {
		geo = clamp(math.Exp(geoSum / float64(nGeo)))
	}
	f = append(f,
		// quantile shape ratios
		clamp(safeDiv(q[q75]+q[q25]-2*q[q50], q[q75]-q[q25])), clamp(safeDiv(q[q90]-q[q10], maxV-minV)),
		clamp(safeDiv(q[q99], q[q50])), clamp(safeDiv(q[q50], q[q01])), clamp(safeDiv(mean, q[q50])),
		// log-domain moments
		clamp(logMean), clamp(logStd), clamp(logSkew), clamp(logKurt), share(nAbsGt1), geo,
		// integrality & divisibility
		share(nInt), share(nHalf), safeDiv(decSum, nf), float64(decMax), share(nLe2),
		share(nMult5), share(nMult10), share(nMult100),
	)
	// leading digit (Benford) distribution
	for d := 1; d <= 9; d++ {
		f = append(f, share(lead[d]))
	}
	f = append(f, clamp(benford), share(lead[0]))
	// digit-count histogram
	for d := 1; d <= 10; d++ {
		f = append(f, share(digits[d]))
	}
	var acLag1, meanAbsDiff, constDiff, dirChanges float64
	if n >= 2 && std != 0 {
		acLag1 = clamp(autocorr / (float64(n-1) * variance))
	}
	if n >= 2 {
		meanAbsDiff = clamp(absDiffSum / float64(n-1))
	}
	if n >= 3 {
		constDiff = float64(nConstDiff) / float64(n-2)
		dirChanges = float64(nDirChange) / float64(n-2)
	}
	var beyond2s, beyond3s float64
	if std != 0 {
		beyond2s, beyond3s = share(nBeyond2s), share(nBeyond3s)
	}
	var valueEntropyNorm, top1 float64
	if nUnique > 1 {
		valueEntropyNorm = clamp(valueEntropy / math.Log(float64(nUnique)))
	}
	if n > 0 {
		top1 = clamp(safeDiv(math.Max(math.Abs(minV), math.Abs(maxV)), absSum))
	}
	f = append(f,
		// sequence / sortedness
		pairShare(nAsc), pairShare(nDesc), pairShare(nEq),
		boolF(n > 1 && pairShare(nGe) == 1), boolF(n > 1 && pairShare(nLe) == 1),
		acLag1, meanAbsDiff, clamp(diffStd), constDiff, dirChanges,
		// outliers
		share(nBeyond15), share(nBeyond3), beyond2s, beyond3s,
		clamp(safeDiv(maxV-mean, std)), clamp(safeDiv(minV-mean, std)),
		// entropy & concentration
		binEntropy, safeDiv(binEntropy, log10), clamp(valueEntropy), valueEntropyNorm,
		gini, safeDiv(float64(longest), nf), top1, uniformKS,
	)
	var gapCV, gapMaxFrac, distinctGapRatio, minGapNonzero float64
	if n >= 2 {
		gapCV = clamp(safeDiv(gapStd, gapMean))
		gapMaxFrac = clamp(safeDiv(gapMax, maxV-minV))
		distinctGapRatio = float64(distinctGaps) / float64(n-1)
	}
	if !math.IsInf(minGap, 1) {
		minGapNonzero = clamp(minGap)
	}
	var longestRun float64
	if n > 0 {
		longestRun = float64(longest) / nf
	}
	var strStd float64
	if n > 0 {
		var t float64
		for _, l := range lens {
			t += float64(l)
		}
		m := t / nf
		var v2 float64
		for _, l := range lens {
			d := float64(l) - m
			v2 += d * d
		}
		strStd = math.Sqrt(v2 / nf)
	}
	var top5Share, bottom5Share float64
	if n > 0 {
		top5Share = clamp(safeDiv(top5, absSortedSum))
		bottom5Share = clamp(safeDiv(bottom5, absSortedSum))
	}
	var firstZ, lastZ, slope float64
	if n > 0 {
		firstZ = clamp(safeDiv(vals[0]-mean, std))
		lastZ = clamp(safeDiv(vals[n-1]-mean, std))
	}
	if n >= 2 {
		slope = clamp(safeDiv(sxy, sxx))
	}
	f = append(f,
		// gap structure over sorted values
		clamp(gapMean), clamp(gapStd), gapCV, gapMaxFrac, safeDiv(float64(n-nUnique), nf),
		longestRun, distinctGapRatio, minGapNonzero,
		// range-membership detectors
		share(in01), share(in100), share(in1k), share(in1m), share(year),
		share(month), share(day), share(hour), share(lat), share(lon),
		share(pct), share(age), share(smallInt), share(gt1e6), share(lt1),
		boolF(n > 0 && minV >= 0 && maxV <= 1), boolF(n > 0 && minV > 0), boolF(n > 0 && minV >= 0),
		boolF(n > 0 && maxV < 0), boolF(n > 0 && share(nInt) == 1),
		// string-form features of the rendered values
		safeDiv(float64(strSum), nf), float64(strMax), float64(strMin), strStd,
		safeDiv(float64(bits.OnesCount64(strLenSet)), nf),
		safeDiv(float64(nDot), nf), safeDiv(float64(nSci), nf), safeDiv(float64(nMinus), nf),
		share(nTrailZero), safeDiv(digitSum, nf),
		// ratio / tail structure
		clamp(safeDiv(maxV, mean)), clamp(safeDiv(minV, mean)), clamp(safeDiv(std, maxV-minV)),
		share(nGtMean), clamp(safeDiv(q[q95], q[q50])), top5Share, bottom5Share,
		clamp(safeDiv(q[q99]-q[q50], q[q75]-q[q25])),
		// positional / trend
		firstZ, lastZ, slope, pairShare(nSignChange), share(nLtEps),
	)
	// normalized 10-bin histogram of the value range
	for _, c := range hist {
		f = append(f, share(c))
	}
	// z-scored decile segment means
	for d := 0; d < 10; d++ {
		if n == 0 || std == 0 {
			f = append(f, 0)
			continue
		}
		lo := d * n / 10
		hi := (d + 1) * n / 10
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n {
			hi = n
		}
		var t float64
		for _, v := range sorted[lo:hi] {
			t += v
		}
		f = append(f, clamp((t/float64(hi-lo)-mean)/std))
	}
	return f
}

// moments returns the mean, standard deviation, skewness and excess
// kurtosis of xs (all 0 for an empty slice).
func moments(xs []float64) (mean, std, skew, kurt float64) {
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

// quantile returns the q-th quantile (0..1) of sorted by linear
// interpolation, or 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// bin10 maps a value's offset into the range, in tenths of the range, to its
// histogram bin; the maximum belongs to the last bin. A range that overflows
// float64 or whose tenth underflows to 0 yields NaN or ±Inf offsets, which
// land in the first or last bin instead of indexing out of range.
func bin10(x float64) int {
	switch {
	case x >= 10:
		return 9
	case x >= 0:
		return int(x)
	}
	return 0
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clamp keeps pathological magnitudes (heavy-tailed kurtosis, huge value
// ranges) from destabilizing downstream networks: NaN reads 0, and values
// beyond ±1e6 read ±1e6.
func clamp(v float64) float64 {
	switch {
	case v > 1e6:
		return 1e6
	case v < -1e6:
		return -1e6
	case v != v: // NaN
		return 0
	}
	return v
}

// multiples reports whether the integer a ≥ 0 is a multiple of 5, 10 and
// 100, as math.Mod(a, k) == 0 does: exactly, in integers below 2^63, where
// every such float64 converts exactly.
func multiples(a float64) (m5, m10, m100 bool) {
	if a < 1<<63 {
		i := uint64(a)
		return i%5 == 0, i%10 == 0, i%100 == 0
	}
	return math.Mod(a, 5) == 0, math.Mod(a, 10) == 0, math.Mod(a, 100) == 0
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func isInt(v float64) bool { return v == math.Trunc(v) }

// leadingDigit returns the first significant digit of v (0 for 0 and
// non-finite values).
func leadingDigit(v float64) int {
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

// intDigits returns the number of digits of v's integer part (0 below 1 and
// for non-finite values).
func intDigits(v float64) int {
	a := math.Abs(math.Trunc(v))
	if a < 1 || math.IsInf(a, 0) {
		return 0
	}
	d := 0
	for a >= 1 {
		a /= 10
		d++
	}
	return d
}

// render describes v's shortest rendering, FormatFloat(v, 'g', -1, 64):
// its length, the digits FormatFloat(v, 'f', -1, 64) prints after the
// point, and whether it holds a point, an exponent or a leading minus.
func (e *extractor) render(v float64) (l, dp int, dot, sci, minus bool) {
	if a := math.Abs(v); a < 1e6 && a == math.Trunc(a) {
		// An integer below 1e6 renders as its digits alone: 'g' keeps the
		// point form for exponents below 6, and there is no fraction.
		l = 1
		for k := uint32(a); k >= 10; k /= 10 {
			l++
		}
		if math.Signbit(v) {
			return l + 1, 0, false, false, true
		}
		return l, 0, false, false, false
	}
	e.str = strconv.AppendFloat(e.str[:0], v, 'g', -1, 64)
	for _, c := range e.str {
		switch c {
		case '.':
			dot = true
		case 'e':
			sci = true
		}
	}
	return len(e.str), decimalPlaces(e.str, sci), dot, sci, e.str[0] == '-'
}

// decimalPlaces returns how many digits FormatFloat(v, 'f', -1, 64) prints
// after the point, given g = FormatFloat(v, 'g', -1, 64) and whether g has
// an exponent. Both render the same shortest digits d₁…dₙ with the decimal
// point after dp of them: 'f' prints max(n−dp, 0) digits after the point,
// and so does 'g' unless it switches to "d.ddde±x" form, where the mantissa
// holds the n digits and dp = x+1.
func decimalPlaces(g []byte, sci bool) int {
	if !sci {
		for i, c := range g {
			if c == '.' {
				return len(g) - i - 1
			}
		}
		return 0
	}
	nd, i := 0, 0
	for ; g[i] != 'e'; i++ {
		if g[i] >= '0' && g[i] <= '9' {
			nd++
		}
	}
	neg := g[i+1] == '-'
	x := 0
	for _, c := range g[i+2:] {
		x = 10*x + int(c-'0')
	}
	if neg {
		x = -x
	}
	return max(nd-(x+1), 0)
}
