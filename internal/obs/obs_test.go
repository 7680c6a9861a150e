package obs

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := &Registry{}
	c := r.NewCounter("t_count_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.NewGauge("t_gauge", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
	// Get-or-create: same name returns the same instrument.
	if r.NewCounter("t_count_total", "again") != c {
		t.Error("re-registration minted a second counter")
	}
}

func TestRegisterTypeMismatchPanics(t *testing.T) {
	r := &Registry{}
	r.NewCounter("t_clash", "counter first")
	defer func() {
		if recover() == nil {
			t.Error("registering t_clash as a gauge should panic")
		}
	}()
	r.NewGauge("t_clash", "now a gauge")
}

func TestHistogramBucketsAndExport(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogram("t_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5.555 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.01"} 1`,
		`t_lat_seconds_bucket{le="0.1"} 2`,
		`t_lat_seconds_bucket{le="1"} 3`,
		`t_lat_seconds_bucket{le="+Inf"} 4`,
		"t_lat_seconds_sum 5.555",
		"t_lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramCumulativeMonotonic checks the exported bucket series is
// non-decreasing and closed by +Inf == count, under concurrency.
func TestHistogramCumulativeMonotonic(t *testing.T) {
	r := &Registry{}
	h := r.NewHistogramVec("t_conc_seconds", "latency", nil, "route")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.With("a").Observe(float64(i%37) / 1000)
			}
		}(w)
	}
	wg.Wait()
	var b strings.Builder
	r.WritePrometheus(&b)
	prev := -1.0
	count := -1.0
	inf := -1.0
	for _, line := range strings.Split(b.String(), "\n") {
		var v float64
		switch {
		case strings.HasPrefix(line, "t_conc_seconds_bucket"):
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("bucket series decreased: %q after %v", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "t_conc_seconds_count"):
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
				t.Fatal(err)
			}
			count = v
		}
	}
	if count != 8000 || inf != count {
		t.Errorf("count = %v, +Inf bucket = %v, want both 8000", count, inf)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := &Registry{}
	vec := r.NewCounterVec("t_events_total", "events", "kind")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				vec.With("hit").Inc()
				vec.With("miss").Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := vec.With("hit").Value(); got != 8000 {
		t.Errorf("hit = %v", got)
	}
	if got := vec.With("miss").Value(); got != 4000 {
		t.Errorf("miss = %v", got)
	}
}

func TestVecLabelExport(t *testing.T) {
	r := &Registry{}
	vec := r.NewCounterVec("t_labeled_total", "labeled", "route", "status")
	vec.With(`GET /x`, "200").Add(3)
	vec.With(`quo"te`, "500").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`t_labeled_total{route="GET /x",status="200"} 3`,
		`t_labeled_total{route="quo\"te",status="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRequestIDContext(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 {
		t.Fatalf("id %q not 16 hex chars", id)
	}
	if id == NewRequestID() {
		t.Error("two IDs collided")
	}
	ctx := WithRequestID(context.Background(), id)
	if RequestID(ctx) != id {
		t.Error("request ID lost in context")
	}
	if RequestID(context.Background()) != "" {
		t.Error("empty context should have no ID")
	}
}

func TestLogFallsBackToDefault(t *testing.T) {
	if Log(context.Background()) != slog.Default() {
		t.Error("bare context should log to slog.Default")
	}
	if Log(nil) != slog.Default() {
		t.Error("nil context should log to slog.Default")
	}
}

// TestExpositionMatchesFrozenWriter: the strconv-based writer renders
// byte-for-byte what the fmt-based writer it replaced rendered, over
// every instrument shape, label values and help text that need
// escaping, ±Inf, NaN, −0, and integers on both sides of 1e15, where
// the integer rendering gives way to the shortest float form.
func TestExpositionMatchesFrozenWriter(t *testing.T) {
	r := &Registry{}
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 1e-7, 5.555,
		999999999999999, -999999999999999, 1e15, -1e15, 1e15 + 2, 1.5e15, 1e21,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for i, v := range values {
		r.NewCounter(fmt.Sprintf("t_counter_%02d_total", i), "counter help").Add(v)
		r.NewGauge(fmt.Sprintf("t_gauge_%02d", i), "gauge help").Set(v)
	}
	r.NewGauge("t_help_escapes", "back\\slash, \"quotes\" and a\nnewline").Set(3)
	cv := r.NewCounterVec("t_vec_total", "labeled counters", "route", "status")
	gv := r.NewGaugeVec("t_gvec", "labeled gauges", "kind")
	for i, lv := range []string{"plain", `quo"te`, `back\slash`, "new\nline", "", "GET /design/{name}", "ünï"} {
		cv.With(lv, fmt.Sprint(200+i)).Add(values[i])
		gv.With(lv).Set(values[len(values)-1-i])
	}
	h := r.NewHistogram("t_hist_seconds", "default buckets", nil)
	hc := r.NewHistogram("t_hist_custom", "custom buckets", []float64{-1, 0, 0.25, 1e15, 2e15, math.Inf(1)})
	hv := r.NewHistogramVec("t_hvec_seconds", "labeled histograms", []float64{0.001, 1, 1000}, "route")
	for _, v := range []float64{1e-5, 0.003, 0.7, 4, 12, 3e15} {
		h.Observe(v)
		hc.Observe(v)
		hv.With(`a"b`).Observe(v)
		hv.With("c").Observe(v / 3)
	}
	hc.Observe(math.NaN())
	r.NewHistogramVec("t_hvec_empty", "no children yet", nil, "route")

	var got, want strings.Builder
	r.WritePrometheus(&got)
	frozenWritePrometheus(r, &want)
	if got.String() != want.String() {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, want %d", len(gl), len(wl))
	}
}

// frozenWritePrometheus is the fmt-based exposition writer as it stood
// before the writer moved to strconv appends, kept verbatim (renamed)
// as the byte-for-byte reference for TestExpositionMatchesFrozenWriter.
func frozenWritePrometheus(r *Registry, w *strings.Builder) {
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
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, frozenEscapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		switch inst := f.inst.(type) {
		case *Counter:
			frozenWriteSample(w, f.name, "", inst.Value())
		case *Gauge:
			frozenWriteSample(w, f.name, "", inst.Value())
		case *Histogram:
			frozenWriteHistogram(w, f.name, "", inst)
		case *CounterVec:
			keys, kids := inst.l.snapshot()
			for i, k := range keys {
				frozenWriteSample(w, f.name, frozenLabelString(f.labels, k, ""), kids[i].Value())
			}
		case *GaugeVec:
			keys, kids := inst.l.snapshot()
			for i, k := range keys {
				frozenWriteSample(w, f.name, frozenLabelString(f.labels, k, ""), kids[i].Value())
			}
		case *HistogramVec:
			keys, kids := inst.l.snapshot()
			for i := range keys {
				frozenWriteHistogram(w, f.name, frozenLabelString(f.labels, keys[i], ""), kids[i])
			}
		}
	}
}

// frozenWriteSample emits one `name{labels} value` line.  labels is the
// pre-rendered `a="b",c="d"` interior, possibly empty.
func frozenWriteSample(w *strings.Builder, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	fmt.Fprintf(w, " %s\n", frozenFormatValue(v))
}

// frozenWriteHistogram emits the cumulative bucket series plus _sum and
// _count.  extraLabels is the family's label interior ("" when
// unlabeled); the le label is appended after it.
func frozenWriteHistogram(w *strings.Builder, name, extraLabels string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		frozenWriteSample(w, name+"_bucket", frozenJoinLabels(extraLabels, fmt.Sprintf(`le="%s"`, frozenFormatValue(bound))), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	frozenWriteSample(w, name+"_bucket", frozenJoinLabels(extraLabels, `le="+Inf"`), float64(cum))
	frozenWriteSample(w, name+"_sum", extraLabels, h.Sum())
	frozenWriteSample(w, name+"_count", extraLabels, float64(h.Count()))
}

func frozenJoinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// frozenLabelString renders the label interior for one child key (the
// \xff-joined value tuple), plus an optional extra pre-rendered pair.
func frozenLabelString(labels []string, key, extra string) string {
	values := strings.Split(key, "\xff")
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l, frozenEscapeLabel(values[i]))
	}
	if extra != "" {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	return b.String()
}

// frozenFormatValue renders a sample value the way Prometheus expects:
// integers without an exponent, everything else in shortest form.
func frozenFormatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func frozenEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func frozenEscapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
