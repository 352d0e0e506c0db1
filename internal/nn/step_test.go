package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/tensor"
)

// The serial oracle of Adam.Step: the gradient merge, clip and Adam update
// as the trainer ran them before the step became one parallel pass.

// Names returns the tracked parameter names in sorted order.
func (g *GradSet) Names() []string {
	names := make([]string, 0, len(g.vars))
	for n := range g.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClipByGlobalNorm rescales all tracked gradients so their joint L2 norm is
// at most maxNorm, accumulating the sum of squares in sorted-name order. It
// returns the pre-clip norm.
func (g *GradSet) ClipByGlobalNorm(maxNorm float64) float64 {
	names := g.Names()
	var total float64
	for _, n := range names {
		if v := g.vars[n]; v.Grad != nil {
			for _, x := range v.Grad.Data {
				total += x * x
			}
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, n := range names {
			if v := g.vars[n]; v.Grad != nil {
				v.Grad.ScaleInPlace(s)
			}
		}
	}
	return norm
}

// MergeGradSets sums the gradients of parts into a fresh GradSet holding
// newly allocated (+0) matrices, adding the parts in part-index order; the
// inputs are left untouched and nil parts are ignored.
func MergeGradSets(parts []*GradSet) *GradSet {
	out := NewGradSet()
	for _, part := range parts {
		if part == nil {
			continue
		}
		for name, v := range part.vars {
			if v.Grad == nil {
				continue
			}
			acc, ok := out.vars[name]
			if !ok {
				acc = &autodiff.Var{Grad: tensor.New(v.Grad.Rows, v.Grad.Cols)}
				out.vars[name] = acc
			}
			acc.Grad.AddInPlace(v.Grad)
		}
	}
	return out
}

// serialAdam is the oracle's optimizer: Adam's update applied serially,
// parameter by parameter, from one merged GradSet, with its own moments.
type serialAdam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  map[string][]float64
}

func newSerialAdam(lr float64) *serialAdam {
	return &serialAdam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make(map[string][]float64), v: make(map[string][]float64)}
}

func (a *serialAdam) step(p *Params, grads *GradSet) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for _, name := range p.Names() {
		g := grads.Grad(name)
		if g == nil {
			continue
		}
		w := p.Get(name)
		m, v := a.m[name], a.v[name]
		if m == nil {
			m, v = make([]float64, len(w.Data)), make([]float64, len(w.Data))
			a.m[name], a.v[name] = m, v
		}
		for i, gi := range g.Data {
			m[i] = a.beta1*m[i] + (1-a.beta1)*gi
			v[i] = a.beta2*v[i] + (1-a.beta2)*gi*gi
			mhat := m[i] / c1
			vhat := v[i] / c2
			w.Data[i] -= a.lr * (mhat / (math.Sqrt(vhat) + a.eps))
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// oracleShapes are the parameters of TestAdamStepMatchesSerialOracle, in
// registration order (unsorted, so a norm summed in that order differs),
// and the parts (of seven, part 1 always nil) that hold a gradient for
// each.
var oracleShapes = []struct {
	name       string
	rows, cols int
	parts      []int
}{
	{"some", 2, 7, []int{2}}, // part 3 tracks it with no gradient
	// 8229 values: two full ranges and 37 more.
	{"big", 3, 2743, []int{0, 2, 3, 4, 5, 6}},
	{"none", 1, 4, nil}, // no part tracks it
	{"a", 3, 5, []int{0, 2, 3, 4, 5, 6}},
}

// oracleParts builds the seven parts of one step. Its gradients' scale
// cycles so that the global norm is about 0.125, 125 and 6.25: below
// maxNorm 5, far above it and just above it. Every 17th value is -0, which the
// merge must turn into +0.
func oracleParts(step int) []*GradSet {
	rng := rand.New(rand.NewSource(int64(100 + step)))
	scale := []float64{1e-3, 1, 0.05}[step%3]
	parts := make([]*GradSet, 7)
	for i := range parts {
		if i != 1 {
			parts[i] = NewGradSet()
		}
	}
	for _, s := range oracleShapes {
		for _, pi := range s.parts {
			g := tensor.New(s.rows, s.cols)
			for i := range g.Data {
				g.Data[i] = (rng.Float64()*2 - 1) * scale
				if i%17 == 0 {
					g.Data[i] = math.Copysign(0, -1)
				}
			}
			parts[pi].Track(s.name, &autodiff.Var{Grad: g})
		}
	}
	parts[3].Track("some", &autodiff.Var{})
	return parts
}

func oracleParams() *Params {
	rng := rand.New(rand.NewSource(9))
	p := NewParams()
	for _, s := range oracleShapes {
		XavierInit(p.Add(s.name, tensor.New(s.rows, s.cols)), rng)
	}
	return p
}

// TestAdamStepMatchesSerialOracle pins Step against the serial tail it
// replaced: at every worker count and over consecutive steps, the merged
// gradients, the pre-clip norm, the parameters and Adam's moments must
// equal, bit for bit, MergeGradSets + ClipByGlobalNorm + a serial Adam
// update.
func TestAdamStepMatchesSerialOracle(t *testing.T) {
	const steps, maxNorm = 6, 5.0
	for _, workers := range []int{1, 2, 3, 8} {
		p, want := oracleParams(), oracleParams()
		initial := p.Snapshot()
		opt, oracle := NewAdam(0.01), newSerialAdam(0.01)
		clipped := 0
		for step := 0; step < steps; step++ {
			parts := oracleParts(step)
			before := MergeGradSets(parts)
			norm := opt.Step(p, parts, maxNorm, workers)

			merged := MergeGradSets(parts)
			for _, name := range merged.Names() {
				if !sameBits(merged.Grad(name).Data, before.Grad(name).Data) {
					t.Fatalf("workers %d step %d: Step wrote to a part's gradient of %q", workers, step, name)
				}
			}
			wantNorm := merged.ClipByGlobalNorm(maxNorm)
			oracle.step(want, merged)
			if math.Float64bits(norm) != math.Float64bits(wantNorm) {
				t.Fatalf("workers %d step %d: norm %v, oracle %v", workers, step, norm, wantNorm)
			}
			if norm > maxNorm {
				clipped++
			}
			for _, s := range oracleShapes {
				if !sameBits(p.Get(s.name).Data, want.Get(s.name).Data) {
					t.Fatalf("workers %d step %d: parameter %q differs from the oracle", workers, step, s.name)
				}
				st := opt.state[s.name]
				if s.parts == nil {
					if st != nil || !sameBits(p.Get(s.name).Data, initial[s.name]) {
						t.Fatalf("workers %d step %d: untracked %q was touched", workers, step, s.name)
					}
					continue
				}
				if !sameBits(st.acc, before.Grad(s.name).Data) {
					t.Fatalf("workers %d step %d: merged gradient of %q differs from the oracle", workers, step, s.name)
				}
				if !sameBits(st.m, oracle.m[s.name]) || !sameBits(st.v, oracle.v[s.name]) {
					t.Fatalf("workers %d step %d: moments of %q differ from the oracle", workers, step, s.name)
				}
			}
		}
		if clipped == 0 || clipped == steps {
			t.Fatalf("workers %d: %d of %d steps clipped, want both cases", workers, clipped, steps)
		}
	}
}

// BenchmarkAdamStep times the optimizer step alone on the 14 parameter
// shapes of perfbench train's model (104,624 values) with 8 parts, one per
// sub-batch of an 8-table minibatch, on GOMAXPROCS workers:
//
//	go test -run '^$' -bench BenchmarkAdamStep -cpu 1,2 ./internal/nn/
//
// The gradients are small enough that the step does not clip, as in most
// training steps.
func BenchmarkAdamStep(b *testing.B) {
	shapes := []struct {
		name       string
		rows, cols int
	}{
		{"subnet.w", 192, 178}, {"subnet.b", 1, 178},
		{"gnn.conv0.edge0.w", 178, 64}, {"gnn.conv0.edge1.w", 178, 64},
		{"gnn.conv0.edge2.w", 178, 64}, {"gnn.conv0.self.w", 178, 64},
		{"gnn.conv0.b", 1, 64},
		{"gnn.conv1.edge0.w", 64, 64}, {"gnn.conv1.edge1.w", 64, 64},
		{"gnn.conv1.edge2.w", 64, 64}, {"gnn.conv1.self.w", 64, 64},
		{"gnn.conv1.b", 1, 64},
		{"classifier.w", 64, 126}, {"classifier.b", 1, 126},
	}
	rng := rand.New(rand.NewSource(1))
	p := NewParams()
	parts := make([]*GradSet, 8)
	for i := range parts {
		parts[i] = NewGradSet()
	}
	for _, s := range shapes {
		XavierInit(p.Add(s.name, tensor.New(s.rows, s.cols)), rng)
		for _, part := range parts {
			g := tensor.New(s.rows, s.cols)
			for i := range g.Data {
				g.Data[i] = (rng.Float64()*2 - 1) * 1e-3
			}
			part.Track(s.name, &autodiff.Var{Grad: g})
		}
	}
	if n := p.Count(); n != 104624 {
		b.Fatalf("%d parameters, want 104624", n)
	}
	opt := NewAdam(1e-2)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if norm := opt.Step(p, parts, 5, workers); norm > 5 {
			b.Fatalf("norm %v clips", norm)
		}
	}
}
