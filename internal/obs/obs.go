// Package obs is PowerPlay's observability spine: dependency-free
// in-process instruments (counters, gauges, fixed-bucket histograms,
// and labeled families of each) behind a registry that exports the
// Prometheus text format, plus the structured-logging and request-ID
// plumbing every layer shares (see log.go).
//
// The package exists so that the hot paths — sheet evaluation, the
// sweep runner, the remote model client, the serving caches — can be
// measured in production without pulling a client library into a
// codebase that is deliberately stdlib-only.  Instruments are a few
// atomic words each; recording is one or two atomic operations, cheap
// enough for paths served in microseconds.
//
// # Naming scheme
//
// Every instrument is named powerplay_<subsystem>_<what>[_<unit>] with
// the usual Prometheus conventions: counters end in _total, durations
// are in seconds, gauges name the quantity they track.  Labels are
// reserved for *small, closed* sets (route patterns, event kinds,
// breaker states) — never user names, design names, model names, or
// anything else a client can mint, so one site's label cardinality is
// bounded by its code, not its traffic.
//
// Instruments register into a package-default Registry on first use;
// constructors are get-or-create by name, so two servers in one test
// process (or a re-built handler) share the process's instruments the
// way Prometheus expects.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bits:
// the storage under counters and gauges (Prometheus samples are
// floats, and the busy-seconds counters need fractional adds).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v, which must be non-negative (not checked; a negative add
// would only corrupt this one sample, never the process).
func (c *Counter) Add(v float64) { c.v.Add(v) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Value() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add moves the value by v (negative to decrease).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Value() }

// Histogram is a fixed-bucket cumulative histogram: observations land
// in the first bucket whose upper bound admits them, and the exporter
// emits the Prometheus cumulative form (every bucket counts all
// observations at or below its bound, closed by +Inf).
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Bucket count is small and fixed (≤ ~20); a linear scan beats a
	// binary search at this size and never allocates.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets spans the latencies this server actually serves: cached
// sheet GETs in tens of microseconds up through multi-second sweeps.
var DefBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// ---------------------------------------------------------------------
// Labeled families

// labeled is the shared machinery behind the *Vec types: a lazily
// populated map from label-value tuples to child instruments.
type labeled[T any] struct {
	labels []string
	mu     sync.RWMutex
	kids   map[string]T
	mk     func() T
}

func newLabeled[T any](labels []string, mk func() T) *labeled[T] {
	return &labeled[T]{labels: labels, kids: make(map[string]T), mk: mk}
}

// with returns the child for one label-value tuple, creating it on
// first use.  The fast path is a read-locked map hit.
func (l *labeled[T]) with(values ...string) T {
	if len(values) != len(l.labels) {
		panic(fmt.Sprintf("obs: instrument wants %d label values, got %d", len(l.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	l.mu.RLock()
	kid, ok := l.kids[key]
	l.mu.RUnlock()
	if ok {
		return kid
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if kid, ok = l.kids[key]; !ok {
		kid = l.mk()
		l.kids[key] = kid
	}
	return kid
}

// snapshot returns the children sorted by key for deterministic export.
func (l *labeled[T]) snapshot() (keys []string, kids []T) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	keys = make([]string, 0, len(l.kids))
	for k := range l.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids = make([]T, len(keys))
	for i, k := range keys {
		kids[i] = l.kids[k]
	}
	return keys, kids
}

// CounterVec is a family of counters sharing a name and label set.
type CounterVec struct{ l *labeled[*Counter] }

// With returns the counter for one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter { return v.l.with(values...) }

// GaugeVec is a family of gauges sharing a name and label set.
type GaugeVec struct{ l *labeled[*Gauge] }

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return v.l.with(values...) }

// HistogramVec is a family of histograms sharing a name, label set and
// bucket layout.
type HistogramVec struct{ l *labeled[*Histogram] }

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.l.with(values...) }

// ---------------------------------------------------------------------
// Registry

// family is one registered instrument family: the unit of HELP/TYPE
// output.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string
	inst   any // *Counter, *Gauge, *Histogram, or the matching *Vec
}

// Registry holds instrument families and renders them in the
// Prometheus text exposition format.  The zero value is ready to use;
// most code uses the package-level Default registry through the
// NewCounter/NewGauge/... constructors.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry the package-level constructors
// register into and Handler serves.
var Default = &Registry{}

// register is the get-or-create core: a family already registered
// under the name is returned as-is (the constructor's instrument shape
// must match — a name registered as a counter cannot come back as a
// gauge).
func (r *Registry) register(name, help, typ string, labels []string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s re-registered as a different instrument", name))
		}
		return f.inst
	}
	inst := mk()
	r.families[name] = &family{name: name, help: help, typ: typ, labels: labels, inst: inst}
	return inst
}

// NewCounter registers (or finds) an unlabeled counter in r.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, "counter", nil, func() any { return &Counter{} }).(*Counter)
}

// NewCounterVec registers (or finds) a counter family in r.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(name, help, "counter", labels, func() any {
		return &CounterVec{l: newLabeled(labels, func() *Counter { return &Counter{} })}
	}).(*CounterVec)
}

// NewGauge registers (or finds) an unlabeled gauge in r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", nil, func() any { return &Gauge{} }).(*Gauge)
}

// NewGaugeVec registers (or finds) a gauge family in r.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return r.register(name, help, "gauge", labels, func() any {
		return &GaugeVec{l: newLabeled(labels, func() *Gauge { return &Gauge{} })}
	}).(*GaugeVec)
}

// NewHistogram registers (or finds) an unlabeled histogram in r.  A nil
// buckets slice selects DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, "histogram", nil, func() any {
		return newHistogram(buckets)
	}).(*Histogram)
}

// NewHistogramVec registers (or finds) a histogram family in r.  A nil
// buckets slice selects DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return r.register(name, help, "histogram", labels, func() any {
		return &HistogramVec{l: newLabeled(labels, func() *Histogram { return newHistogram(buckets) })}
	}).(*HistogramVec)
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Package-level constructors against the Default registry.

// NewCounter registers (or finds) an unlabeled counter.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewCounterVec registers (or finds) a counter family.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewGauge registers (or finds) an unlabeled gauge.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGaugeVec registers (or finds) a gauge family.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labels...)
}

// NewHistogram registers (or finds) an unlabeled histogram.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// NewHistogramVec registers (or finds) a histogram family.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}

// ---------------------------------------------------------------------
// Exposition

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families and children in
// deterministic name order.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		w.WriteString("# HELP ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		writeEscaped(w, f.help, false)
		w.WriteString("\n# TYPE ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(f.typ)
		w.WriteByte('\n')
		switch inst := f.inst.(type) {
		case *Counter:
			writeSample(w, f.name, "", "", inst.Value())
		case *Gauge:
			writeSample(w, f.name, "", "", inst.Value())
		case *Histogram:
			writeHistogram(w, f.name, "", inst)
		case *CounterVec:
			keys, kids := inst.l.snapshot()
			for i, k := range keys {
				writeSample(w, f.name, "", labelString(f.labels, k), kids[i].Value())
			}
		case *GaugeVec:
			keys, kids := inst.l.snapshot()
			for i, k := range keys {
				writeSample(w, f.name, "", labelString(f.labels, k), kids[i].Value())
			}
		case *HistogramVec:
			keys, kids := inst.l.snapshot()
			for i, k := range keys {
				writeHistogram(w, f.name, labelString(f.labels, k), kids[i])
			}
		}
	}
}

// writeSample emits one `name+suffix{labels} value` line.  labels is
// the pre-rendered `a="b",c="d"` interior, possibly empty.
func writeSample(w *strings.Builder, name, suffix, labels string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	var num [32]byte
	w.Write(appendValue(num[:0], v))
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket series plus _sum and
// _count.  labels is the family's label interior ("" when unlabeled);
// the le label follows it.
func writeHistogram(w *strings.Builder, name, labels string, h *Histogram) {
	var num [32]byte
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		w.WriteString(name)
		w.WriteString("_bucket{")
		if labels != "" {
			w.WriteString(labels)
			w.WriteByte(',')
		}
		w.WriteString(`le="`)
		if i < len(h.bounds) {
			w.Write(appendValue(num[:0], h.bounds[i]))
		} else {
			w.WriteString("+Inf")
		}
		w.WriteString(`"} `)
		w.Write(appendValue(num[:0], float64(cum)))
		w.WriteByte('\n')
	}
	writeSample(w, name, "_sum", labels, h.Sum())
	writeSample(w, name, "_count", labels, float64(h.Count()))
}

// labelString renders the label interior for one child key (the
// \xff-joined value tuple).
func labelString(labels []string, key string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		var v string
		v, key, _ = strings.Cut(key, "\xff")
		b.WriteString(l)
		b.WriteString(`="`)
		writeEscaped(&b, v, true)
		b.WriteByte('"')
	}
	return b.String()
}

// appendValue renders a sample value the way Prometheus expects:
// integers without an exponent, everything else in shortest form.
func appendValue(dst []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// writeEscaped writes s with backslash and newline escaped, and double
// quotes too for a label value (HELP text leaves them alone).
func writeEscaped(w *strings.Builder, s string, quote bool) {
	special := "\\\n"
	if quote {
		special += `"`
	}
	if !strings.ContainsAny(s, special) {
		w.WriteString(s)
		return
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			w.WriteString(`\\`)
		case c == '\n':
			w.WriteString(`\n`)
		case c == '"' && quote:
			w.WriteString(`\"`)
		default:
			w.WriteByte(c)
		}
	}
}

// Handler serves the Default registry at GET /metrics.
func Handler() http.Handler {
	return HandlerFor(Default)
}

// HandlerFor serves one registry's exposition.
func HandlerFor(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
