package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/table"
)

// requireOracleBits fails unless Extract and ExtractNormalized of vals equal
// the reference registry's, bit for bit.
func requireOracleBits(t testing.TB, what string, vals []float64) {
	t.Helper()
	for _, c := range []struct {
		kind      string
		got, want []float64
	}{
		{"raw", Extract(vals), refExtract(vals)},
		{"normalized", ExtractNormalized(vals), refExtractNormalized(vals)},
	} {
		if len(c.got) != Dim {
			t.Fatalf("%s: %s vector has %d entries", what, c.kind, len(c.got))
		}
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s: %s feature %d (%s) = %v (%#x), reference %v (%#x); values %v",
					what, c.kind, i, names[i], c.got[i], math.Float64bits(c.got[i]),
					c.want[i], math.Float64bits(c.want[i]), vals)
			}
		}
	}
}

// inOracleDomain reports whether the reference registry returns for vals
// on every platform: finite values whose range neither overflows nor has a
// tenth that underflows to 0 (its 10-bin histogram indexes out of range
// otherwise, and its digit count never ends on ±Inf).
func inOracleDomain(vals []float64) bool {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	r := hi - lo
	return len(vals) == 0 || r == 0 || (!math.IsInf(r, 0) && r/10 > 0)
}

func TestExtractMatchesOracle(t *testing.T) {
	cases := [][]float64{
		nil, {0}, {-0.0}, {42}, {1, 2}, {2, 1}, {3, 3}, {1, 2, 3}, {0, -0.0, 0},
		{-0.0, 1, 0, -1}, {7, 7, 7, 7}, {1.5, 2.5, 3}, {1995, 2001, 2023, 1900, 2100},
		{0.001, 0.01, 0.1, 1e-5, 1e-9, 1e-12}, {1e21, 1.5e22, -3e25, 7},
		{5e-324, 1e-320, 2.5e-310}, {1e300, -1e300, 5e299}, {1e308, 0},
		{math.MaxFloat64, math.MaxFloat64 / 2}, {100, 200, 300, 105, 10, 0},
		{-5, -10, -100, -0.5, 5, 10}, {1, 1, 2, 2, 2, 3, 3, 3, 3},
		{12.3456789, 0.1 + 0.2, 1.0 / 3, 2.0 / 3, 123456.789},
	}
	for _, vals := range cases {
		if !inOracleDomain(vals) {
			t.Fatalf("case %v is outside the reference's domain", vals)
		}
		requireOracleBits(t, fmt.Sprint(vals), vals)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		vals := make([]float64, rng.Intn(70))
		scale := math.Pow(10, float64(rng.Intn(25)-12))
		for i := range vals {
			switch rng.Intn(7) {
			case 0:
				vals[i] = rng.NormFloat64() * scale
			case 1:
				vals[i] = float64(rng.Intn(3000) - 500)
			case 2:
				vals[i] = math.Round(rng.Float64()*scale*100) / 100
			case 3:
				vals[i] = float64(rng.Intn(5)) * 5
			case 4:
				if i > 0 {
					vals[i] = vals[rng.Intn(i)] // ties
				}
			case 5:
				vals[i] = float64(i) * 2.5 // arithmetic runs
			default:
				vals[i] = -rng.ExpFloat64() * scale
			}
		}
		requireOracleBits(t, fmt.Sprintf("trial %d", trial), vals)
	}
}

// TestExtractMatchesOracleOnCorpora holds the one-pass extractor to the
// reference on every numeric column of both generated corpora — the
// columns training and serving actually featurize.
func TestExtractMatchesOracleOnCorpora(t *testing.T) {
	gc := data.ReducedGitConfig()
	gc.NumTables = 120
	for _, c := range []*data.Corpus{
		data.GenerateSportsTables(data.ReducedSportsConfig()),
		data.GenerateGitTables(gc),
	} {
		cols := 0
		for _, tb := range c.Tables {
			for _, col := range tb.Columns {
				if col.Kind == table.KindNumeric {
					requireOracleBits(t, c.Name+" "+tb.ID+" "+col.Header, col.NumValues)
					cols++
				}
			}
		}
		if cols < 500 {
			t.Fatalf("%s: only %d numeric columns", c.Name, cols)
		}
	}
}

// extractWithin runs Extract on vals, failing the test if it panics or
// does not return within a generous bound.
func extractWithin(t *testing.T, vals []float64) []float64 {
	t.Helper()
	type result struct {
		out []float64
		err any
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{err: r}
			}
		}()
		done <- result{out: Extract(vals)}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Extract(%v) panicked: %v", vals, r.err)
		}
		return r.out
	case <-time.After(10 * time.Second):
		t.Fatalf("Extract(%v) did not return", vals)
	}
	return nil
}

// TestExtractExtremeInputs covers the cells the request parsers used to
// pass through: NaN, ±Inf, and finite columns whose range overflows
// float64 or whose tenth underflows to 0. Extract returns on all of them,
// and on the finite ones every feature is finite.
func TestExtractExtremeInputs(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		finite bool
	}{
		{[]float64{math.NaN(), 1}, false},
		{[]float64{math.Inf(1), 1}, false},
		{[]float64{math.Inf(-1), 1}, false},
		{[]float64{-1e308, 1e308}, true},
		{[]float64{5e-324, 0}, true},
		{[]float64{-math.MaxFloat64, 3, math.MaxFloat64, 0}, true},
	} {
		out := extractWithin(t, c.vals)
		if len(out) != Dim {
			t.Fatalf("Extract(%v) returned %d values", c.vals, len(out))
		}
		if !c.finite {
			continue
		}
		for i, v := range append(out, ExtractNormalized(c.vals)...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("Extract(%v): feature %s = %v", c.vals, names[i%Dim], v)
			}
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a random quarter of its Puts, so pooled scratch is
// allocated afresh and allocation counts mean nothing.
var raceEnabled bool

func TestAppendNormalizedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	vals := []float64{12.5, 3, 7.25, 1e-7, 1998, -4, 3, 1e22}
	dst := make([]float64, 0, Dim)
	AppendNormalized(dst, vals) // warm the scratch pool
	if n := testing.AllocsPerRun(100, func() { AppendNormalized(dst, vals) }); n != 0 {
		t.Fatalf("AppendNormalized allocates %v times per column", n)
	}
}

// FuzzExtract asserts Extract returns for any column, gives finite features
// for finite values, and equals the reference registry bit for bit wherever
// the reference returns (inOracleDomain; the reference never returns on
// ±Inf). The input is read as little-endian float64s.
func FuzzExtract(f *testing.F) {
	enc := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(enc())
	f.Add(enc(1, 2, 3))
	f.Add(enc(7.5, 2.1, 5.3, 3.8, 6.1, 7.5, 0.25))
	f.Add(enc(1995, 2001, 2023, -0.0, 0))
	f.Add(enc(1e21, 1.5e-7, -3))
	f.Add(enc(math.NaN(), 1))
	f.Add(enc(math.Inf(1), 1))
	f.Add(enc(-1e308, 1e308))
	f.Add(enc(5e-324, 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]float64, len(raw)/8)
		finite := true
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			finite = finite && !math.IsNaN(vals[i]) && !math.IsInf(vals[i], 0)
		}
		out := Extract(vals)
		if len(out) != Dim {
			t.Fatalf("Extract returned %d values", len(out))
		}
		if finite {
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("feature %s = %v on finite values %v", names[i], v, vals)
				}
			}
		}
		if inOracleDomain(vals) {
			requireOracleBits(t, "fuzz input", vals)
		}
	})
}

// TestExtractConcurrent shares the pooled scratch between goroutines, as
// the inference engine's prepare workers do; under -race it checks the
// pool hands each extraction its own scratch.
func TestExtractConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cols := make([][]float64, 64)
	want := make([][]float64, len(cols))
	for i := range cols {
		cols[i] = make([]float64, 1+rng.Intn(40))
		for j := range cols[i] {
			cols[i][j] = math.Round(rng.NormFloat64()*1000) / 10
		}
		want[i] = ExtractNormalized(cols[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (k*7 + w) % len(cols)
				got := ExtractNormalized(cols[i])
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("goroutine %d, column %d: feature %s = %v, want %v", w, i, names[j], got[j], want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
