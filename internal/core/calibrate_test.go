package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"github.com/sematype/pythagoras/internal/eval"
)

func TestCalibrateTemperature(t *testing.T) {
	c := tinyCorpus(40)
	enc := tinyEncoder()
	rng := rand.New(rand.NewSource(1))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)
	cfg := tinyConfig(enc)
	cfg.Epochs = 10
	m, err := TrainCtx(context.Background(), c, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Temperature() != 1 {
		t.Fatal("uncalibrated temperature must be 1")
	}

	temp, err := m.CalibrateTemperature(c, val)
	if err != nil {
		t.Fatal(err)
	}
	if temp <= 0 || temp > 8 {
		t.Fatalf("temperature = %v out of range", temp)
	}
	if m.Temperature() != temp {
		t.Fatal("temperature not stored")
	}

	// Calibration must not change argmax predictions.
	before, _ := m.Evaluate(c, test)
	preds := predictOne(m, c.Tables[test[0]])
	m.temperature = 1
	plain := predictOne(m, c.Tables[test[0]])
	m.temperature = temp
	for i := range preds {
		if preds[i].Type != plain[i].Type {
			t.Fatal("temperature scaling changed the argmax")
		}
	}
	after, _ := m.Evaluate(c, test)
	if before.Overall.WeightedF1 != after.Overall.WeightedF1 {
		t.Fatalf("calibration must not affect F1: before=%v after=%v",
			before.Overall.WeightedF1, after.Overall.WeightedF1)
	}
}

func TestCalibrateTemperaturePersisted(t *testing.T) {
	c := tinyCorpus(22)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 2
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3}, []int{4, 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CalibrateTemperature(c, []int{4, 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, Config{Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Temperature() != m.Temperature() {
		t.Fatalf("temperature lost on reload: %v vs %v", m2.Temperature(), m.Temperature())
	}
}

func TestCalibrateTemperatureNoValData(t *testing.T) {
	c := tinyCorpus(12)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 1
	m, err := TrainCtx(context.Background(), c, []int{0, 1}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CalibrateTemperature(c, nil); err == nil {
		t.Fatal("calibration with no data must error")
	}
}
