// Prometheus text exposition (format version 0.0.4) for the registry.
//
// The registry's native metric names are dotted paths with free-form
// segments ("http./v1/predict.requests"); Prometheus names are
// [a-zA-Z_:][a-zA-Z0-9_:]*. WritePrometheus sanitizes names at render time
// (every invalid rune becomes '_'), so call sites keep the readable dotted
// convention and scrape targets see legal families. One logical metric fans
// out into labeled series through the Labels helper: the registry key
// `infer.predicted{type="player.age"}` renders as
// `infer_predicted{type="player.age"}` — same family, one series per label
// set, no string-concat call sites.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Labels canonicalizes a labeled metric name: Labels("infer.predicted",
// "type", "player.age") → `infer.predicted{type="player.age"}`. Pairs are
// sorted by key and values are escaped, so the same logical series always
// maps to the same registry key regardless of argument order. A trailing
// odd value is ignored; no pairs returns the bare name.
func Labels(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{sanitizeLabelKey(kv[i]), escapeLabelValue(kv[i+1])})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels splits a registry key built by Labels back into its base name
// and the rendered label body ("" when unlabeled).
func splitLabels(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// sanitizeMetricName maps a dotted registry name onto the Prometheus
// alphabet: [a-zA-Z0-9_:] pass through, everything else becomes '_', and a
// leading digit gains a '_' prefix.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// sanitizeLabelKey maps a label key onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelKey(key string) string {
	s := sanitizeMetricName(key)
	return strings.ReplaceAll(s, ":", "_")
}

// escapeLabelValue escapes a label value per the exposition format, which
// defines exactly three escapes: backslash, double quote and newline. Every
// other rune is written as it is.
var escapeLabelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promSeries is one renderable series of a family.
type promSeries struct {
	labels string // rendered label body, "" when unlabeled
	value  float64
	isInt  bool
	intVal uint64
	hist   *Histogram // non-nil for histogram series
}

type promFamily struct {
	name   string // sanitized
	kind   string // counter | gauge | histogram
	series []promSeries
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format: families sorted by name, `# TYPE` headers, cumulative `le`
// buckets ending at `+Inf`, and `_sum`/`_count` series whose count equals
// the +Inf bucket (the count is computed from the buckets themselves, so
// the rendered family is always internally consistent even while
// observations are in flight). Output is byte-stable for a quiescent
// registry. Nil-safe: a nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := map[string]*promFamily{}
	family := func(key, kind string) (*promFamily, string) {
		base, labels := splitLabels(key)
		name := sanitizeMetricName(base)
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		return f, labels
	}
	for key, c := range r.counters {
		f, labels := family(key, "counter")
		f.series = append(f.series, promSeries{labels: labels, isInt: true, intVal: c.Value()})
	}
	for key, g := range r.gauges {
		f, labels := family(key, "gauge")
		f.series = append(f.series, promSeries{labels: labels, value: g.Value()})
	}
	for key, fn := range r.gaugeFuncs {
		f, labels := family(key, "gauge")
		f.series = append(f.series, promSeries{labels: labels, value: fn()})
	}
	for key, h := range r.hists {
		f, labels := family(key, "histogram")
		f.series = append(f.series, promSeries{labels: labels, hist: h})
	}
	r.mu.RUnlock()

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				writeHistogramSeries(&b, f.name, s.labels, s.hist)
			case s.isInt:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), s.intVal)
			default:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func renderLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHistogramSeries renders one histogram as cumulative buckets plus
// _sum and _count. The le label composes with any existing labels.
func writeHistogramSeries(b *strings.Builder, name, labels string, h *Histogram) {
	bounds, counts, sum := h.dump()
	withLE := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return "{" + labels + `,le="` + le + `"}`
	}
	var cum uint64
	for i, ub := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(formatFloat(ub)), cum)
	}
	cum += counts[len(counts)-1] // the +Inf overflow bucket
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), cum)
}
