package pythagoras_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIPipeline exercises the real binaries end to end:
// datagen → pythagoras train → eval → predict → serve, and serve's refusal
// of SLO flags it cannot serve with.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration test")
	}
	bin := t.TempDir()
	build := func(name, pkg string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Env = os.Environ()
		if raw, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, raw)
		}
		return out
	}
	datagen := build("datagen", "./cmd/datagen")
	pyth := build("pythagoras", "./cmd/pythagoras")

	work := t.TempDir()
	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = work
		raw, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, raw)
		}
		return string(raw)
	}

	// 1. Generate a tiny corpus.
	out := run(datagen, "-corpus", "sports", "-tables", "24", "-out", work)
	if !strings.Contains(out, "SportsTables") {
		t.Fatalf("datagen output: %s", out)
	}
	corpusDir := filepath.Join(work, "sportstables")
	entries, err := os.ReadDir(corpusDir)
	if err != nil || len(entries) < 24 {
		t.Fatalf("corpus dir: %v, %d entries", err, len(entries))
	}

	// 2. Train briefly with JSON logs: the progress lines reach stderr
	// through the slog Printf adapter, so every stderr line must be one JSON
	// object with a msg, while the results stay on stdout.
	model := filepath.Join(work, "model.bin")
	train := exec.Command(pyth, "train", "-data", corpusDir, "-model", model,
		"-epochs", "3", "-dim", "16", "-lm-layers", "1", "-log-format", "json")
	train.Dir = work
	var trainErr bytes.Buffer
	train.Stderr = &trainErr
	stdout, err := train.Output()
	if err != nil {
		t.Fatalf("train: %v\n%s%s", err, stdout, trainErr.String())
	}
	if !strings.Contains(string(stdout), "model saved") {
		t.Fatalf("train output: %s", stdout)
	}
	for _, line := range strings.Split(strings.TrimSpace(trainErr.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil || entry["msg"] == nil {
			t.Fatalf("train stderr line under -log-format json is not a JSON object with a msg: %q", line)
		}
	}
	// The checkpoint is train's one artifact: the drift baseline is inside
	// it, not in a file next to it.
	entries, err = os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, filepath.Base(model)) && name != filepath.Base(model) {
			t.Fatalf("train wrote %s next to the checkpoint", name)
		}
	}

	// 3. Evaluate the saved model. The checkpoint records the encoder
	// train built from -dim and -lm-layers, so eval, predict and serve take
	// no encoder flags.
	out = run(pyth, "eval", "-data", corpusDir, "-model", model)
	if !strings.Contains(out, "weighted F1") {
		t.Fatalf("eval output: %s", out)
	}

	// 4. Predict one table.
	out = run(pyth, "predict", "-data", corpusDir, "-model", model,
		"-table", "sports_00000")
	if !strings.Contains(out, "sports_00000") || !strings.Contains(out, "→") {
		t.Fatalf("predict output: %s", out)
	}

	// 5. serve refuses an SLO target outside (0, 1) and a latency threshold
	// below 1 ms before it loads the checkpoint: the missing model file
	// would otherwise be the error.
	for _, flag := range [][]string{{"-slo-target", "1"}, {"-slo-latency-ms", "0"}} {
		cmd := exec.Command(pyth, "serve", "-model", filepath.Join(work, "missing.bin"), flag[0], flag[1])
		cmd.Dir = work
		raw, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(raw), flag[0]) {
			t.Fatalf("serve %s %s: err %v, output %q; want a failure naming the flag", flag[0], flag[1], err, raw)
		}
	}

	// 6. Serve the model with JSON logs, send one prediction, stop with
	// SIGINT: every stderr line must be one JSON object, and the request
	// must be logged exactly once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var stderr bytes.Buffer
	serve := exec.Command(pyth, "serve", "-model", model, "-addr", addr,
		"-log-format", "json")
	serve.Dir = work
	serve.Stderr = &stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve.Wait() }()
	exited := false
	defer func() {
		if !exited {
			serve.Process.Kill()
			<-done
		}
	}()
	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(base + "/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became ready; stderr:\n%s", stderr.String())
		}
	}
	body := `{"name":"NBA Stats","columns":[{"header":"PPG","values":["28.1","15.2"]}]}`
	resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/predict = %d", resp.StatusCode)
	}
	// serve took the drift baseline from the checkpoint alone, so the
	// prediction fed the drift monitor.
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Gauges["drift.observations"]; got < 1 {
		t.Fatalf("drift.observations = %v after one predict, want ≥ 1", got)
	}
	if err := serve.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Fatalf("serve exited with %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGINT")
	}
	predictLines := 0
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		var entry struct {
			Path string `json:"path"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON stderr line under -log-format json: %q", line)
		}
		if entry.Path == "/v1/predict" {
			predictLines++
		}
	}
	if predictLines != 1 {
		t.Fatalf("/v1/predict logged %d times, want once; stderr:\n%s", predictLines, stderr.String())
	}
}
