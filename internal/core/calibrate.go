package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/tensor"
)

// CalibrateTemperature fits a softmax temperature on held-out tables by
// minimizing the negative log-likelihood of the gold labels — standard
// temperature scaling. The tables' logits come from the scorer (score), on
// one worker per CPU. The temperature is stored in the model (persisted by
// Save) and applied by PredictBatch and InferProbs, so reported confidences
// track actual accuracy instead of the over-confident raw softmax.
//
// It returns the fitted temperature (1 = unchanged).
func (m *Model) CalibrateTemperature(c *data.Corpus, valIdx []int) (float64, error) {
	type sample struct {
		logits []float64
		label  int
	}
	var samples []sample
	// score fails only when its context is cancelled, and this one never is.
	_ = m.score(context.TODO(), runtime.NumCPU(), len(valIdx), StageHooks{}, func(i int) *Prepared {
		return m.Prepare(c.Tables[valIdx[i]])
	}, func(_ int, p *Prepared, targets []int, logits *tensor.Matrix) error {
		for k, n := range targets {
			if l := p.Graph.Labels[n]; l >= 0 {
				samples = append(samples, sample{logits: logits.Row(k), label: l})
			}
		}
		return nil
	})
	if len(samples) == 0 {
		return 1, fmt.Errorf("core: no labeled validation columns to calibrate on")
	}

	nll := func(temp float64) float64 {
		var total float64
		for _, s := range samples {
			mx := math.Inf(-1)
			for _, v := range s.logits {
				if v/temp > mx {
					mx = v / temp
				}
			}
			var z float64
			for _, v := range s.logits {
				z += math.Exp(v/temp - mx)
			}
			total += -(s.logits[s.label]/temp - mx - math.Log(z))
		}
		return total / float64(len(samples))
	}

	// Golden-section search over a generous temperature range.
	lo, hi := 0.25, 8.0
	const phi = 0.6180339887498949
	a, b := hi-(hi-lo)*phi, lo+(hi-lo)*phi
	fa, fb := nll(a), nll(b)
	for i := 0; i < 60; i++ {
		if fa < fb {
			hi, b, fb = b, a, fa
			a = hi - (hi-lo)*phi
			fa = nll(a)
		} else {
			lo, a, fa = a, b, fb
			b = lo + (hi-lo)*phi
			fb = nll(b)
		}
	}
	temp := (lo + hi) / 2
	// Never make calibration worse than identity.
	if nll(temp) > nll(1) {
		temp = 1
	}
	m.temperature = temp
	return temp, nil
}

// Temperature returns the calibrated softmax temperature (1 before
// calibration).
func (m *Model) Temperature() float64 {
	if m.temperature == 0 {
		return 1
	}
	return m.temperature
}
