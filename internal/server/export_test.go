package server

import (
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/obs"
)

// New builds a server around a trained model with a default engine.
func New(m *core.Model, minConfidence float64, opts ...Option) *Server {
	return NewWithEngine(infer.New(m), minConfidence, opts...)
}

// WithMetrics supplies the server's metrics registry, which it then lends
// to an engine that has none.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithFaults arms fault-injection points on the serving path and in the
// re-score driver and watchdog the server builds — the chaos suite's seam
// (nil disables, the default).
func WithFaults(fs *faultinject.Set) Option {
	return func(s *Server) { s.faults = fs }
}

// WithWatchNow injects the watchdog's clock — the fake-clock seam that
// makes for-duration and cool-down math exact in tests.
func WithWatchNow(now func() time.Time) Option {
	return func(s *Server) { s.watchNow = now }
}
