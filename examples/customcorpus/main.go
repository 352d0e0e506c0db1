// Customcorpus shows how to adopt Pythagoras for your own data: write your
// labeled tables as CSV + labels.json (or produce them from any source),
// load them with table.LoadDir, train, persist the model, and reload it in
// another process.
//
//	go run ./examples/customcorpus
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

func main() {
	dir, err := os.MkdirTemp("", "pythagoras-custom")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Author a tiny custom corpus: IoT sensor tables with your own type
	// vocabulary. In practice these CSVs come from your lake.
	writeSensorCorpus(dir, 24)

	// 2. Load it back the way any user would.
	tables, err := table.LoadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	corpus := &data.Corpus{Name: "iot-lake", Tables: tables}
	corpus.BuildVocabulary()
	if err := corpus.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom corpus: %s\n", corpus.ComputeStats())
	fmt.Printf("type vocabulary: %v\n\n", corpus.Types)

	// 3. Train (small budget — the corpus is tiny).
	enc := lm.NewEncoder(lm.Config{
		Dim: 48, Layers: 1, Heads: 4, FFNDim: 96, MaxLen: 256, Buckets: 1 << 13, Seed: 7,
	})
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 60
	train := make([]int, 0, len(corpus.Tables)-4)
	val := []int{len(corpus.Tables) - 4, len(corpus.Tables) - 3}
	test := []int{len(corpus.Tables) - 2, len(corpus.Tables) - 1}
	for i := 0; i < len(corpus.Tables)-4; i++ {
		train = append(train, i)
	}
	model, err := core.TrainCtx(context.Background(), corpus, train, val, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Persist and reload — the deployment path. The checkpoint records
	// the encoder's config, so the reload rebuilds the same encoder.
	modelPath := filepath.Join(dir, "iot-model.bin")
	if err := model.SaveFile(modelPath); err != nil {
		log.Fatal(err)
	}
	reloaded, err := core.LoadFile(modelPath, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model round-tripped through %s (%d parameters)\n\n",
		modelPath, reloaded.Params().Count())

	// 5. Type incoming tables.
	eng := infer.New(reloaded)
	for _, ti := range test {
		t := corpus.Tables[ti]
		batch, err := eng.PredictBatchCtx(context.Background(), []*table.Table{t})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("predictions for %q:\n", t.Name)
		for _, p := range batch[0] {
			fmt.Printf("  %-14s → %-22s (conf %.2f, gold %s)\n",
				p.Header, p.Type, p.Confidence, t.Columns[p.ColIndex].SemanticType)
		}
	}
}

// writeSensorCorpus fabricates labeled IoT tables on disk in the on-disk
// corpus format (CSV + labels sidecar).
func writeSensorCorpus(dir string, n int) {
	sites := []string{"plant-a", "plant-b", "warehouse", "rooftop", "lab"}
	for i := 0; i < n; i++ {
		site := sites[i%len(sites)]
		rows := 12
		t := &table.Table{
			Name: fmt.Sprintf("%s sensor log %d", site, 2020+i%4),
			ID:   fmt.Sprintf("sensor_%03d", i),
			Columns: []*table.Column{
				{Header: "sensor", SemanticType: "iot.sensor_id", Kind: table.KindText},
				{Header: "temp", SemanticType: "iot.temperature_c", Kind: table.KindNumeric},
				{Header: "hum", SemanticType: "iot.humidity_pct", Kind: table.KindNumeric},
				{Header: "volt", SemanticType: "iot.battery_voltage", Kind: table.KindNumeric},
				{Header: "rssi", SemanticType: "iot.signal_rssi", Kind: table.KindNumeric},
			},
		}
		for r := 0; r < rows; r++ {
			t.Columns[0].TextValues = append(t.Columns[0].TextValues,
				fmt.Sprintf("%s-node-%02d", site, (i*7+r)%40))
			t.Columns[1].NumValues = append(t.Columns[1].NumValues, 15+float64((i*13+r*3)%200)/10)
			t.Columns[2].NumValues = append(t.Columns[2].NumValues, 30+float64((i*5+r*11)%550)/10)
			t.Columns[3].NumValues = append(t.Columns[3].NumValues, 3.1+float64((i+r)%12)/10)
			t.Columns[4].NumValues = append(t.Columns[4].NumValues, -90+float64((i*3+r*7)%45))
		}
		if err := table.SaveDir(dir, []*table.Table{t}); err != nil {
			log.Fatal(err)
		}
	}
}
