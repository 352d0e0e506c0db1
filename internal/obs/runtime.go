// Runtime telemetry: Go runtime health exported as gauges, evaluated lazily
// at snapshot/scrape time through GaugeFunc. runtime.ReadMemStats
// stop-the-worlds, so reads are throttled — concurrent scrapes within the
// refresh window share one cached MemStats instead of each paying the STW.
package obs

import (
	"runtime"
	"sync"
	"time"
)

// processStart anchors process.uptime_seconds. Package-init time is close
// enough to exec time for interpreting benchmark artifacts, which is what
// the gauge exists for.
var processStart = time.Now()

// memStatsReader caches runtime.ReadMemStats for a refresh interval. When a
// pause histogram is attached, each refresh also drains the GC cycles that
// completed since the previous refresh into it: PauseNs is the runtime's own
// circular buffer of the last 256 pause durations, indexed by (NumGC+255)%256,
// so the delta in NumGC names exactly the new entries.
type memStatsReader struct {
	mu        sync.Mutex
	stats     runtime.MemStats
	last      time.Time
	refresh   time.Duration
	pauses    *Histogram // runtime.gc.pause.seconds; nil skips the drain
	lastNumGC uint32
	primed    bool
}

func (m *memStatsReader) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.last) >= m.refresh {
		runtime.ReadMemStats(&m.stats)
		m.last = time.Now()
		m.drainPauses()
	}
	return m.stats
}

// drainPauses observes each GC pause completed since the previous refresh.
// The first refresh only primes the cursor — pauses from before the registry
// existed belong to no one's watch window. Caller holds m.mu.
func (m *memStatsReader) drainPauses() {
	if m.pauses == nil {
		return
	}
	n := m.stats.NumGC
	if !m.primed {
		m.primed = true
		m.lastNumGC = n
		return
	}
	newCycles := n - m.lastNumGC
	if newCycles > uint32(len(m.stats.PauseNs)) {
		newCycles = uint32(len(m.stats.PauseNs)) // older pauses were overwritten
	}
	for i := uint32(0); i < newCycles; i++ {
		idx := (n - i + 255) % uint32(len(m.stats.PauseNs))
		m.pauses.Observe(float64(m.stats.PauseNs[idx]) / 1e9)
	}
	m.lastNumGC = n
}

// GCPauseBuckets are the runtime.gc.pause.seconds histogram bounds: GC
// pauses live in the 10µs–10ms range on healthy processes, so the buckets
// resolve that band and let anything slower pile into the overflow.
var GCPauseBuckets = ExpBuckets(1e-5, 2, 12) // 10µs … ~20ms

// RegisterRuntimeMetrics exports Go runtime health into the registry:
//
//	runtime.goroutines              current goroutine count
//	runtime.heap.alloc.bytes        live heap bytes
//	runtime.heap.objects            live heap objects
//	runtime.gc.count                completed GC cycles
//	runtime.gc.pause.total.seconds  cumulative stop-the-world pause time
//	runtime.gc.pause.seconds        histogram of individual GC pauses,
//	                                drained from MemStats.PauseNs at each
//	                                throttled refresh — a watchdog input
//	                                signal alongside runtime.goroutines
//	runtime.sys.bytes               total bytes obtained from the OS
//	runtime.gomaxprocs              GOMAXPROCS at scrape time
//	runtime.num_cpu                 logical CPUs visible to the process
//	process.uptime_seconds          seconds since process start
//
// The last three make a scraped dashboard interpretable across machines: a
// throughput number without the CPU budget behind it is unreadable, and
// uptime separates a freshly warmed process from one hours into its cache
// lifetime.
//
// Values are read lazily at snapshot/scrape time; ReadMemStats is throttled
// to at most once per second so a tight scrape loop cannot turn telemetry
// into GC pressure. Nil-safe.
func RegisterRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	ms := &memStatsReader{refresh: time.Second}
	ms.pauses = r.Histogram("runtime.gc.pause.seconds", GCPauseBuckets)
	r.GaugeFunc("runtime.goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("runtime.gomaxprocs", func() float64 {
		return float64(runtime.GOMAXPROCS(0))
	})
	r.GaugeFunc("runtime.num_cpu", func() float64 {
		return float64(runtime.NumCPU())
	})
	r.GaugeFunc("process.uptime_seconds", func() float64 {
		return time.Since(processStart).Seconds()
	})
	r.GaugeFunc("runtime.heap.alloc.bytes", func() float64 {
		return float64(ms.read().HeapAlloc)
	})
	r.GaugeFunc("runtime.heap.objects", func() float64 {
		return float64(ms.read().HeapObjects)
	})
	r.GaugeFunc("runtime.gc.count", func() float64 {
		return float64(ms.read().NumGC)
	})
	r.GaugeFunc("runtime.gc.pause.total.seconds", func() float64 {
		return float64(ms.read().PauseTotalNs) / 1e9
	})
	r.GaugeFunc("runtime.sys.bytes", func() float64 {
		return float64(ms.read().Sys)
	})
}
