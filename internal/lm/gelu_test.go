package lm

import (
	"flag"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

var geluSweep = flag.Bool("gelu-sweep", false, "check gelu32 against geluF32 on every float32 input")

// geluSweepResult counts one pass of geluInPlace against geluF32.
type geluSweepResult struct {
	inputs, mismatches uint64
	inRange            uint64   // inputs the fast path computes: normal, |x| < 16
	fellBack           uint64   // inputs geluF32 computed, out-of-range ones included
	first              []uint32 // the first few mismatching bit patterns
}

// sweepGELU compares geluInPlace with geluF32 on every stride-th float32
// bit pattern, from 0 up, over one goroutine per CPU. NaN matches any NaN.
func sweepGELU(stride uint64) geluSweepResult {
	const chunk = 4096
	workers := uint64(runtime.GOMAXPROCS(0))
	parts := make([]geluSweepResult, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &parts[w]
			in := make([]uint32, 0, chunk)
			xs := make([]float32, 0, chunk)
			for c := w * chunk * stride; c < 1<<32; c += workers * chunk * stride {
				in, xs = in[:0], xs[:0]
				for i := c; i < min(c+chunk*stride, 1<<32); i += stride {
					in = append(in, uint32(i))
					xs = append(xs, math.Float32frombits(uint32(i)))
					if ex := uint32(i) >> 23 & 0xff; ex-1 < exp16-1 {
						res.inRange++
					}
				}
				res.inputs += uint64(len(xs))
				res.fellBack += uint64(geluInPlace(xs))
				for i, got := range xs {
					want := geluF32(math.Float32frombits(in[i]))
					if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
						res.mismatches++
						if len(res.first) < 8 {
							res.first = append(res.first, in[i])
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	var sum geluSweepResult
	for _, p := range parts {
		sum.inputs += p.inputs
		sum.inRange += p.inRange
		sum.fellBack += p.fellBack
		sum.mismatches += p.mismatches
		sum.first = append(sum.first, p.first...)
	}
	return sum
}

func checkGELUSweep(t *testing.T, stride uint64) {
	res := sweepGELU(stride)
	nearBoundary := res.fellBack - (res.inputs - res.inRange)
	t.Logf("geluInPlace against geluF32: %d mismatches of %d inputs; of the %d in its range, %d (%.5f%%) fell back on geluF32",
		res.mismatches, res.inputs, res.inRange, nearBoundary, 100*float64(nearBoundary)/float64(res.inRange))
	if want := (1<<32 + stride - 1) / stride; res.inputs != want {
		t.Fatalf("swept %d inputs, want %d", res.inputs, want)
	}
	for _, bits := range res.first {
		x := math.Float32frombits(bits)
		got := []float32{x}
		geluInPlace(got)
		t.Errorf("geluInPlace(%v = %#08x) = %v, geluF32 %v", x, bits, got[0], geluF32(x))
	}
}

// TestGELUSweep checks geluInPlace against geluF32 on all 2^32 float32
// inputs. It runs under -gelu-sweep (`make gelu-sweep` runs it on both
// math.Exp branches); without the flag, TestGELUSample checks a slice of
// them.
func TestGELUSweep(t *testing.T) {
	if !*geluSweep {
		t.Skip("run with -gelu-sweep")
	}
	checkGELUSweep(t, 1)
}

// TestGELUSample checks every 4099th float32 input, about a million.
func TestGELUSample(t *testing.T) {
	checkGELUSweep(t, 4099)
}

// TestGELUSpecials checks the inputs the sample skips that geluInPlace
// must leave to geluF32: signed zeros, subnormals, infinities, NaN and
// |x| ≥ 16.
func TestGELUSpecials(t *testing.T) {
	in := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 16, -16, math.MaxFloat32, -math.MaxFloat32}
	xs := slices.Clone(in)
	if n := geluInPlace(xs); n != len(in) {
		t.Errorf("%d of %d special inputs fell back on geluF32, want all", n, len(in))
	}
	for i, x := range in {
		if got, want := xs[i], geluF32(x); math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
			t.Errorf("geluInPlace(%v) = %v, geluF32 %v", x, got, want)
		}
	}
}

// BenchmarkGELU times both GELUs on N(0,1) inputs, in ns per element.
func BenchmarkGELU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]float32, 4096)
	for i := range in {
		in[i] = float32(rng.NormFloat64())
	}
	xs := make([]float32, len(in))
	perElement := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(in)), "ns/element")
	}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(xs, in)
			geluInPlace(xs)
		}
		perElement(b)
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range in {
				xs[j] = geluF32(x)
			}
		}
		perElement(b)
	})
}
