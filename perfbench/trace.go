package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/store"
	"powerplay/internal/units"
	"powerplay/internal/vqsim"
	"powerplay/internal/web"
)

// The traced run: an in-process replay of the same seeded operations.
// The benchmark builds a web.Server with the binary's settings, drives
// Handler().ServeHTTP with a "request" span around each call, and then
// calls each layer's public functions on the shadow of the same state,
// each in its own span tagged with the operation's identifier.  A
// layer's share of a request is attributed by replay, not measured
// inside the program; spans inside the program are a later change.

// span is one timed call.  Parent is the operation's request span for
// layer spans and empty for the request itself.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	op    int64
	kind  string
	// allocBytes and gcCycles accumulate runtime/metrics deltas taken
	// around each ServeHTTP call only.
	allocBytes, gcCycles float64
	samples              []metrics.Sample
	// store is the benchmark's own journal, fed the record kinds the
	// server writes for the same edits.
	store      *store.Store
	storeBytes int64
	sweepCache map[*sheet.Design]*explore.Cache
}

func (t *tracer) add(name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Kind: t.kind,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) readRuntime() (alloc, gc float64) {
	metrics.Read(t.samples)
	return float64(t.samples[0].Value.Uint64()), float64(t.samples[1].Value.Uint64())
}

// handlerTransport serves requests by calling the handler in process,
// with the request span (and the allocation counters) around the call.
type handlerTransport struct {
	h http.Handler
	t *tracer
}

func (ht handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	a0, g0 := ht.t.readRuntime()
	start := time.Now()
	ht.h.ServeHTTP(rec, req)
	end := time.Now()
	a1, g1 := ht.t.readRuntime()
	ht.t.allocBytes += a1 - a0
	ht.t.gcCycles += g1 - g0
	ht.t.add("request", "", start, end)
	return rec.Result(), nil
}

// spanHook is what the checker calls around layer functions; a nil
// hook (the untraced run) just calls them.
type spanHook struct {
	t       *tracer
	records []store.Record
}

func (h *spanHook) span(name string, fn func()) {
	if h == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	h.t.add(name, "request", start, time.Now())
}

// record queues the journal record the server writes for a mutation.
func (h *spanHook) record(d *sheet.Design, m sheet.Mutation) {
	if h == nil {
		return
	}
	mm := m
	h.records = append(h.records, store.Record{Kind: store.KindMutate, Design: d.Name, Gen: d.Generation(), Mut: &mm})
}

// persist appends the queued records to the benchmark's store and
// folds the user's journal into a snapshot when it is due, as the
// server does after every edit.
func (h *spanHook) persist(user string, sh *shadowSheet) {
	if h == nil || len(h.records) == 0 {
		return
	}
	recs := h.records
	h.records = nil
	for i := range recs {
		if b, err := json.Marshal(&recs[i]); err == nil {
			h.t.storeBytes += int64(len(b))
		}
	}
	var lag int
	var err error
	h.span("store.append", func() { lag, err = h.t.store.Append(user, recs...) })
	if err != nil || !h.t.store.SnapshotDue(lag) {
		return
	}
	h.span("store.snapshot", func() {
		blob, merr := sh.d.MarshalJSON()
		if merr != nil {
			return
		}
		_ = h.t.store.SnapshotUser(user, &store.UserSnapshot{User: user,
			Designs: []store.DesignSnapshot{{ID: sh.d.ID(), Gen: sh.d.Generation(), Design: blob}}})
	})
}

// sweep replays the sweep handler's layer calls: the design clone and
// the explore runner over the per-design point cache.
func (h *spanHook) sweep(d *sheet.Design, s sweepSpec) {
	if h == nil {
		return
	}
	var snap *sheet.Design
	h.span("sheet.clone", func() { snap = d.Clone() })
	from, err1 := units.Parse(s.from)
	to, err2 := units.Parse(s.to)
	if err1 != nil || err2 != nil {
		return
	}
	c := h.t.sweepCache[d]
	if c == nil {
		c = explore.NewCache(0)
		h.t.sweepCache[d] = c
	}
	h.span("explore.sweep", func() {
		_, _ = (&explore.Runner{Cache: c}).Sweep(context.Background(), snap, s.variable, explore.Linspace(from, to, s.steps))
	})
}

// tracedRun is the traced replay's outcome.
type tracedRun struct {
	ops      int
	seconds  float64
	fails    failureLog
	checks   int64
	byName   map[string][]float64 // span durations in seconds, by span name
	byKind   map[string][]float64 // web self time per op kind, seconds
	request  []float64
	alloc    float64
	gc       float64
	stBytes  int64
	layerSum map[string]float64 // total seconds per top-level layer
	spans    []span             // written out when the run ends
}

// layerOf maps a span to the module it times.  expr.compile nests
// inside the sheet edit it precedes, so it is reported on its own and
// not subtracted twice.
var layerOf = map[string]string{
	"sheet.apply": "sheet", "sheet.play": "sheet", "sheet.evaluate": "sheet", "sheet.clone": "sheet",
	"explore.sweep": "explore", "store.append": "store", "store.snapshot": "store",
}

// runTraced replays the workload in process for the given duration,
// keeping the site's data under workDir.
func runTraced(w *workload, seed int64, dur time.Duration, workDir string) (*tracedRun, error) {
	dataDir := filepath.Join(workDir, "site")
	srv, err := web.NewServer(web.Config{DataDir: dataDir, Durability: "interval"}, library.Standard())
	if err != nil {
		return nil, fmt.Errorf("traced server: %w", err)
	}
	defer srv.Close()
	if err := seedDemo(srv); err != nil {
		return nil, err
	}
	pol, err := store.ParsePolicy("interval")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(workDir, "bench-store"), store.Options{Policy: pol})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	t := &tracer{t0: time.Now(), store: st, sweepCache: map[*sheet.Design]*explore.Cache{},
		samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}}
	inProcess := func(gzip bool) *conn {
		return &conn{hc: &http.Client{Transport: handlerTransport{h: srv.Handler(), t: t}, CheckRedirect: noRedirect},
			base: "http://powerplay.local", gzip: gzip}
	}
	c, setup := inProcess(true), inProcess(false)

	s := newSite(w, seed)
	reg, err := siteRegistry()
	if err != nil {
		return nil, err
	}
	if err := s.populate(setup, reg); err != nil {
		return nil, fmt.Errorf("traced populate: %w", err)
	}
	s.capture(setup)
	rng := newCheckRNG(seed)
	for i := 0; i < warmupOps; i++ {
		for _, g := range s.streams {
			s.record("traced warm-up", s.exec(c, g.next(), rng, nil))
		}
	}
	// Only the measured replay's spans and counters count.
	t.spans, t.allocBytes, t.gcCycles, t.storeBytes = t.spans[:0], 0, 0, 0
	tr := &tracedRun{byName: map[string][]float64{}, byKind: map[string][]float64{}, layerSum: map[string]float64{}}
	hook := &spanHook{t: t}
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		for _, g := range s.streams {
			o := g.next()
			t.op++
			t.kind = o.kind.String()
			tr.checks++
			if res := s.exec(c, o, rng, hook); res.err != nil {
				tr.fails.add("traced "+o.kind.String(), res.err)
			}
			tr.ops++
		}
	}
	tr.seconds = time.Since(start).Seconds()
	tr.alloc, tr.gc, tr.stBytes = t.allocBytes, t.gcCycles, t.storeBytes
	tr.fails.merge(&s.fails)
	tr.checks += s.checks

	// Per operation: request time minus the replayed top-level layer
	// spans is the web layer's self time.
	type opAcc struct {
		kind          string
		request, subs float64
	}
	acc := map[int64]*opAcc{}
	for _, sp := range t.spans {
		d := float64(sp.End-sp.Start) / 1e9
		a := acc[sp.Op]
		if a == nil {
			a = &opAcc{kind: sp.Kind}
			acc[sp.Op] = a
		}
		if sp.Name == "request" {
			a.request += d
			continue
		}
		tr.byName[sp.Name] = append(tr.byName[sp.Name], d)
		if l, ok := layerOf[sp.Name]; ok {
			a.subs += d
			tr.layerSum[l] += d
		}
	}
	for _, a := range acc {
		tr.request = append(tr.request, a.request)
		tr.byKind[a.kind] = append(tr.byKind[a.kind], a.request-a.subs)
	}
	tr.spans = t.spans
	return tr, nil
}

// seedDemo installs the paper's three designs for user demo, as
// cmd/powerplay -seed does.
func seedDemo(srv *web.Server) error {
	reg := srv.Registry()
	d1, err := vqsim.Luminance1(reg)
	if err != nil {
		return err
	}
	d2, err := vqsim.Luminance2(reg)
	if err != nil {
		return err
	}
	d3, err := infopad.Build(reg)
	if err != nil {
		return err
	}
	for _, d := range []*sheet.Design{d1, d2, d3} {
		if err := srv.InstallDesign("demo", d); err != nil {
			return err
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
