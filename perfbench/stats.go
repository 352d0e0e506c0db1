package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported: fewer, and one outlier decides the value.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie above its rank.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(len(s)))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1], len(s)-k >= minBeyond
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.99, 0.90, 0.75, 0.50}

// tail returns the highest percentile, at most want, that has at least
// minBeyond samples beyond it, with the level used. With too few samples
// even for the median it returns the median and level 0.5.
func tail(xs []float64, want float64) (float64, float64) {
	for _, p := range tailLevels {
		if p > want {
			continue
		}
		if v, ok := percentile(xs, p); ok {
			return v, p
		}
	}
	return median(xs), 0.5
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonArrivals returns the send offsets of an open-loop Poisson process
// at rate per second, drawn from rng: exponential gaps, accumulated, until
// the offset passes dur and at least minCount arrivals exist.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration, minCount int) []time.Duration {
	var out []time.Duration
	var at float64 // seconds
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d > dur && len(out) >= minCount {
			return out
		}
		out = append(out, d)
	}
}

// zipf draws indices in [0, n) with P(k) ∝ (v+k)^-s: index 0 is the most
// popular, as with a few hot tables in a lake.
type zipf struct{ z *rand.Zipf }

func newZipf(rng *rand.Rand, s, v float64, n int) zipf {
	return zipf{rand.NewZipf(rng, s, v, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of ivs, each clipped to
// [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// occupancy summarizes how many calls were in flight over [lo, hi): the
// share of the window with none in flight and the time-averaged count.
func occupancy(calls []interval, lo, hi int64) (idleFrac, meanInflight float64) {
	if hi <= lo {
		return 0, 0
	}
	var busy int64
	for _, c := range calls {
		a, b := max(c.lo, lo), min(c.hi, hi)
		if a < b {
			busy += b - a
		}
	}
	wall := float64(hi - lo)
	return 1 - float64(covered(calls, lo, hi))/wall, float64(busy) / wall
}
