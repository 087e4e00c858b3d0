// Package ops is qosrmad's live-operations toolkit: a dependency-free
// Prometheus-text metrics registry and a periodic self-checker.
//
// The registry (Registry) holds counters, gauges, histograms and
// callback-backed series, and renders them in the Prometheus text
// exposition format (version 0.0.4) for a GET /metrics endpoint. It is a
// deliberate miniature: fixed label sets chosen at registration time,
// lock-free observation on the hot path (all instruments are built from
// atomics), and deterministic output order (families sorted by name,
// series in registration order), so the scrape output is diffable in
// tests. Everything a decision shard touches per query is a single atomic
// add — the metrics layer adds no locks to the serving hot path.
//
// The checker (Checker) runs an audit callback on a fixed period and
// retains the latest report; the service wires it to spot-audit cached
// decisions against fresh library computations and degrades its health
// endpoint when an audit fails (see internal/service).
package ops

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; instances handed out by Registry.Counter are registered for scrape.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution. Observations are lock-free
// atomic adds; the scrape renders cumulative Prometheus buckets plus the
// _sum and _count series.
type Histogram struct {
	// bounds are the inclusive bucket upper limits, strictly increasing;
	// counts has one extra slot for the +Inf overflow bucket.
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds an unregistered histogram over the given bucket
// upper bounds (must be strictly increasing). Most callers should use
// Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("ops: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v; len(bounds) is +Inf.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// series is one registered time series: a rendered label set and a
// callback that appends its sample lines at scrape time.
type series struct {
	labels string
	write  func(w io.Writer, name, labels string)
}

// family groups the series of one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a collection of metrics rendered in the Prometheus text
// format. Registration takes a lock; observation of the returned
// instruments does not. A nil *Registry is a valid no-op sink: every
// registration returns a working (but unscraped) instrument, so library
// code can be instrumented unconditionally.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register appends one series to the named family, creating it on first
// use. Registering the same (name, labels) twice panics: that is a wiring
// bug, and silently double-reporting a series corrupts scrapes.
func (r *Registry) register(name, help, typ, labels string, write func(io.Writer, string, string)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("ops: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == labels {
			panic(fmt.Sprintf("ops: duplicate series %s%s", name, labels))
		}
	}
	f.series = append(f.series, &series{labels: labels, write: write})
}

// Labels renders a label set from key/value pairs, in the given order:
// Labels("shard", "0") → `{shard="0"}`. Values are escaped per the text
// exposition format. No pairs renders the empty string.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("ops: Labels needs key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatFloat renders a sample value.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter registers and returns a counter with the given rendered label
// set (use Labels to build it; "" for none).
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %d\n", n, l, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters that already live elsewhere as atomics
// (per-shard task counts, cache statistics).
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "counter", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %s\n", n, l, formatFloat(fn()))
	})
}

// GaugeFunc registers a gauge computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "gauge", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %s\n", n, l, formatFloat(fn()))
	})
}

// InfoFunc registers a gauge that is always 1 and carries its payload in
// labels rendered fresh at scrape time (the snapshot-version idiom:
// qosrmad_snapshot_info{hash="...",source="..."} 1). fn returns the
// rendered label set.
func (r *Registry) InfoFunc(name, help string, fn func() string) {
	r.register(name, help, "gauge", "", func(w io.Writer, n, _ string) {
		fmt.Fprintf(w, "%s%s 1\n", n, fn())
	})
}

// Histogram registers and returns a histogram over the given bucket upper
// bounds.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, "histogram", labels, func(w io.Writer, n, l string) {
		writeHistogram(w, n, l, h)
	})
	return h
}

// writeHistogram renders the cumulative bucket, sum and count series.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	// The le label joins any existing labels inside one brace set.
	prefix, suffix := "{", "}"
	if labels != "" {
		prefix = labels[:len(labels)-1] + ","
		suffix = "}"
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"%s %d\n", name, prefix, formatFloat(b), suffix, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", name, prefix, suffix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// WritePrometheus renders every registered metric in the text exposition
// format: families sorted by name, each preceded by its HELP and TYPE
// headers, series in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.write(w, f.name, s.labels)
		}
	}
}

// ServeHTTP renders the registry — a Registry is mountable directly as
// the /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}
