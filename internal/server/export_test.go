package server

import (
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
)

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
