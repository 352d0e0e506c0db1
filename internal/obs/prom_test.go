package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry exercising every metric
// kind, labels, and names needing sanitization.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("http./v1/predict.requests").Add(7)
	r.Counter(Labels("infer.predicted", "type", "player.age")).Add(3)
	r.Counter(Labels("infer.predicted", "type", "team.name")).Add(5)
	r.Gauge("pool.utilization").Set(0.75)
	r.GaugeFunc("runtime.fake", func() float64 { return 42 })
	h := r.Histogram("infer.confidence", []float64{0.25, 0.5, 0.75, 1})
	for _, v := range []float64{0.1, 0.6, 0.6, 0.9, 1.5} {
		h.Observe(v)
	}
	// The per-model shadow-rollout series the server's lifecycle manager
	// emits: labeled counters, a labeled histogram, a derived gauge, and the
	// swap event counter — pinned here so the exposition shape scrapers
	// depend on cannot drift.
	r.Counter(Labels("shadow.tables.scored", "model", "v2")).Add(9)
	r.Counter(Labels("shadow.columns.compared", "model", "v2")).Add(18)
	r.Counter(Labels("shadow.columns.agree", "model", "v2")).Add(17)
	r.GaugeFunc(Labels("shadow.agreement.rate", "model", "v2"), func() float64 { return 17.0 / 18.0 })
	sh := r.Histogram(Labels("shadow.latency.seconds", "model", "v2"), []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.004, 0.02, 0.03} {
		sh.Observe(v)
	}
	r.Counter(Labels("models.swap", "event", "promote")).Inc()
	r.Counter(Labels("models.swap", "event", "rollback")).Inc()
	// Watchdog and runtime-signal families added with the anomaly watchdog:
	// the alert-state gauge pair and the GC pause histogram (fixed
	// observations — the golden pins exposition shape, not live values).
	r.GaugeFunc(Labels("watch.alerts", "rule", "slo-fast-burn", "state", "firing"), func() float64 { return 1 })
	r.GaugeFunc(Labels("watch.alerts", "rule", "slo-fast-burn", "state", "pending"), func() float64 { return 0 })
	gc := r.Histogram("runtime.gc.pause.seconds", GCPauseBuckets)
	for _, v := range []float64{0.00002, 0.00015, 0.0011} {
		gc.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition diverged from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWritePrometheusByteStable(t *testing.T) {
	r := goldenRegistry()
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two expositions of a quiescent registry differ")
	}
	// The JSON snapshot is likewise byte-stable (satellite: sorted Snapshot).
	j1, _ := json.Marshal(r.Snapshot())
	j2, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(j1, j2) {
		t.Fatal("two JSON snapshots of a quiescent registry differ")
	}
}

// TestWritePrometheusShape parses the exposition line by line and checks
// the structural invariants a scraper relies on: sorted unique families,
// cumulative non-decreasing le buckets ending at +Inf, and _count equal to
// the +Inf bucket.
func TestWritePrometheusShape(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	type histState struct {
		lastCum  uint64
		infCum   uint64
		count    uint64
		sawInf   bool
		sawCount bool
	}
	hists := map[string]*histState{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			families = append(families, parts[2])
			if parts[3] == "histogram" {
				hists[parts[2]] = &histState{}
			}
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for r := range name {
			c := name[r]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && r > 0)
			if !ok {
				t.Fatalf("illegal metric name %q in line %q", name, line)
			}
		}
		valStr := line[strings.LastIndexByte(line, ' ')+1:]
		for fam, st := range hists {
			switch {
			case strings.HasPrefix(line, fam+"_bucket"):
				cum, err := strconv.ParseUint(valStr, 10, 64)
				if err != nil {
					t.Fatalf("bucket value %q: %v", valStr, err)
				}
				if cum < st.lastCum {
					t.Fatalf("non-cumulative buckets in %q: %d after %d", fam, cum, st.lastCum)
				}
				st.lastCum = cum
				if strings.Contains(line, `le="+Inf"`) {
					st.sawInf, st.infCum = true, cum
				}
			case strings.HasPrefix(line, fam+"_count"):
				c, _ := strconv.ParseUint(valStr, 10, 64)
				st.sawCount, st.count = true, c
			}
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
	for i := 1; i < len(families); i++ {
		if families[i] == families[i-1] {
			t.Fatalf("duplicate family %q", families[i])
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram family rendered")
	}
	for fam, st := range hists {
		if !st.sawInf {
			t.Fatalf("%q has no +Inf bucket", fam)
		}
		if !st.sawCount || st.count != st.infCum {
			t.Fatalf("%q _count=%d != +Inf bucket %d", fam, st.count, st.infCum)
		}
	}
}

func TestLabelsCanonical(t *testing.T) {
	a := Labels("infer.predicted", "type", "age", "source", "nfl")
	b := Labels("infer.predicted", "source", "nfl", "type", "age")
	if a != b {
		t.Fatalf("label order leaked into key: %q vs %q", a, b)
	}
	if a != `infer.predicted{source="nfl",type="age"}` {
		t.Fatalf("canonical key = %q", a)
	}
	if got := Labels("plain"); got != "plain" {
		t.Fatalf("no-pair Labels = %q", got)
	}
	if got := Labels("x", "odd"); got != "x" {
		t.Fatalf("odd-pair Labels = %q", got)
	}
	// The exposition format defines exactly three escapes in a label value:
	// backslash, double quote and newline. A tab, like every other rune,
	// is written as it is.
	esc := Labels("m", "k", "a\\b\"c\nd\te")
	base, body := splitLabels(esc)
	if want := `k="a\\b\"c\nd` + "\t" + `e"`; base != "m" || body != want {
		t.Fatalf("escaping broken: %q → base %q body %q, want body %q", esc, base, body, want)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"http./v1/predict.requests": "http__v1_predict_requests",
		"span.predict-batch.infer":  "span_predict_batch_infer",
		"runtime.goroutines":        "runtime_goroutines",
		"9lives":                    "_9lives",
		"":                          "_",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}
}

// TestSnapshotJSONBackwardCompat pins the JSON wire shape of /v1/metrics:
// the same top-level keys and histogram fields previous clients consumed.
func TestSnapshotJSONBackwardCompat(t *testing.T) {
	r := goldenRegistry()
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := top[key]; !ok {
			t.Fatalf("snapshot JSON lost top-level key %q: %s", key, raw)
		}
	}
	var hists map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	h, ok := hists["infer.confidence"]
	if !ok {
		t.Fatalf("histogram missing from snapshot: %s", top["histograms"])
	}
	for _, key := range []string{"count", "sum", "min", "max", "p50", "p90", "p99"} {
		if _, ok := h[key]; !ok {
			t.Fatalf("histogram snapshot lost field %q: %v", key, h)
		}
	}
	var snapCount uint64
	if err := json.Unmarshal(h["count"], &snapCount); err != nil || snapCount != 5 {
		t.Fatalf("count = %s, want 5", h["count"])
	}
}

// TestLabelsRaceWritePrometheus drives concurrent creation of labeled
// series (the registry-mutating path behind obs.Labels call sites) against
// WritePrometheus and Snapshot readers — the scrape-during-traffic shape
// that must stay clean under -race. Every render must also remain
// structurally sane while series appear underneath it.
func TestLabelsRaceWritePrometheus(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			types := []string{"player.age", "team.name", "match.date", "price"}
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := Labels("infer.predicted", "type", types[(i+w)%len(types)], "worker", strconv.Itoa(w))
				r.Counter(key).Inc()
				r.Gauge(Labels("pool.busy", "worker", strconv.Itoa(w))).Set(float64(i))
				r.Histogram(Labels("lat", "worker", strconv.Itoa(w)), []float64{0.1, 1}).Observe(float64(i % 3))
				i++
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Errorf("WritePrometheus: %v", err)
			break
		}
		_ = r.Snapshot()
	}
	close(stop)
	wg.Wait()
	// A final quiescent render must be byte-stable.
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("quiescent render not byte-stable after concurrent label creation")
	}
}
