package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
	"github.com/sematype/pythagoras/internal/server"
)

// trained is one core.TrainCtx run and what it reported about itself.
type trained struct {
	model *core.Model
	wall  time.Duration
	// epochs holds the wall time of epochs 1.. (each includes its
	// validation pass), taken from the trainer's progress lines; epoch 0
	// also contains the prepare stage, so it is left out.
	epochs []time.Duration
	// prepare is the time from the "preparing" line to the end of epoch 0,
	// less the median later epoch.
	prepare time.Duration
	reg     *obs.Registry // the trainer's telemetry; nil unless traced
}

// train fits a model with the encoder geometry `pythagoras train` ships
// (lm.DefaultConfig), a fixed seed and fixed epochs: early stopping is off
// because Patience equals Epochs. Every call builds a fresh encoder, so the
// prepare stage always starts with cold caches.
func train(ctx context.Context, c *data.Corpus, trainIdx, valIdx []int, epochs int, traced bool) (*trained, error) {
	cfg := core.DefaultConfig(lm.NewEncoder(lm.DefaultConfig()))
	cfg.Epochs, cfg.Patience = epochs, epochs
	var marks []time.Time // preparing line, then one per epoch
	cfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "pythagoras: preparing") || strings.HasPrefix(format, "pythagoras: epoch") {
			marks = append(marks, time.Now())
		}
	}
	tr := &trained{}
	if traced {
		tr.reg = obs.NewRegistry()
		cfg.Metrics = tr.reg
	}
	t0 := time.Now()
	m, err := core.TrainCtx(ctx, c, trainIdx, valIdx, cfg)
	tr.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if len(marks) != epochs+1 {
		return nil, fmt.Errorf("train: saw %d progress lines, want %d", len(marks), epochs+1)
	}
	tr.model = m
	var eps []float64
	for i := 2; i < len(marks); i++ {
		d := marks[i].Sub(marks[i-1])
		tr.epochs = append(tr.epochs, d)
		eps = append(eps, float64(d))
	}
	tr.prepare = marks[1].Sub(marks[0]) - time.Duration(median(eps))
	return tr, nil
}

// servedCorpusSeed fixes the corpus the served model of online and lake
// trains on, so every run serves the same model; the workload seed varies
// the traffic and the lakes.
const servedCorpusSeed = 1

// trainServed trains the model online and lake serve and hands it over the
// way `pythagoras train` and `pythagoras serve` do: the drift baseline is
// the trained model's predictions on its training tables, and the model
// goes through its checkpoint format into a fresh encoder. The engine is
// wired as serve wires it by default: NumCPU workers, a metrics registry
// and drift telemetry.
func trainServed(ctx context.Context, c *data.Corpus, trainIdx, valIdx []int, traced bool) (*trained, *infer.Engine, error) {
	tr, err := train(ctx, c, trainIdx, valIdx, setupEpochs, traced)
	if err != nil {
		return nil, nil, err
	}
	baseline := tr.model.ComputeDriftBaseline(pick(c, trainIdx))
	var ckpt bytes.Buffer
	if err := tr.model.Save(&ckpt); err != nil {
		return nil, nil, fmt.Errorf("save model: %w", err)
	}
	m, err := core.Load(&ckpt, core.Config{Encoder: lm.NewEncoder(lm.DefaultConfig())})
	if err != nil {
		return nil, nil, fmt.Errorf("load model: %w", err)
	}
	tr.model = m
	releaseMemory() // the trained model and its tapes are garbage now
	eng := infer.New(m, infer.WithWorkers(0), infer.WithMetrics(obs.NewRegistry()))
	eng.EnableDrift(obs.NewDriftMonitor(baseline))
	return tr, eng, nil
}

// discardWriter drops log output after it has been formatted. io.Discard
// would let the log package skip formatting, which the served access log
// pays for.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// served is an in-process HTTP server on a loopback port.
type served struct {
	srv    *server.Server
	http   *http.Server
	url    string
	stopWD context.CancelFunc
	done   chan error
}

// serve starts server.NewWithEngine wired as `pythagoras serve` with its
// default flags: access log, 30 s request timeout, max-inflight 64, 1%
// trace sampling, default SLO, shadow and re-score settings,
// min-confidence 0.3, and the watchdog loop running.
func serve(eng *infer.Engine) (*served, error) {
	recorder := obs.NewTraceRecorder(obs.TraceConfig{
		SampleRate: 0.01, SlowThreshold: time.Second, Buffer: obs.DefaultTraceBuffer,
	})
	srv := server.NewWithEngine(eng, 0.3,
		server.WithLogger(log.New(discardWriter{}, "", log.LstdFlags)), server.WithDebug(false),
		server.WithRequestTimeout(30*time.Second), server.WithMaxInflight(64),
		server.WithTraceRecorder(recorder),
		server.WithSLO(slo.New(slo.DefaultObjectives(server.DefaultSLOTarget, server.DefaultSLOLatency))),
		server.WithShadowSample(1), server.WithRescoreBatch(16),
		server.WithWatchInterval(watch.DefaultInterval),
		server.WithShadowAgreement(server.DefaultShadowAgreementMin, server.DefaultShadowAgreementWindow),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Watchdog().Start(ctx)
	s := &served{
		srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(),
		stopWD: cancel, done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its goroutines to end.
func (s *served) stop() error {
	s.stopWD()
	s.srv.Watchdog().Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns an HTTP client holding at most conns connections to the
// server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns,
			DisableCompression: true,
		},
		Timeout: time.Minute,
	}
}
