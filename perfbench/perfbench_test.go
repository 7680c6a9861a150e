package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"powerplay/internal/core/explore"
	"powerplay/internal/library"
	"powerplay/internal/units"
	"powerplay/internal/web"
)

func draw(w *workload, seed int64, conn, n int) []op {
	g := newStream(w, population(w), seed, conn)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < w.conns; c++ {
			a, b := draw(w, 7, c, 500), draw(w, 7, c, 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s conn %d: two streams with seed 7 differ", w.name, c)
			}
			if reflect.DeepEqual(a, draw(w, 8, c, 500)) {
				t.Errorf("%s conn %d: seeds 7 and 8 give the same sequence", w.name, c)
			}
		}
	}
}

func TestConnectionsOwnDisjointSheets(t *testing.T) {
	for _, w := range workloads {
		owner := map[int]int{}
		for c := 0; c < w.conns; c++ {
			for _, o := range draw(w, 3, c, 2000) {
				if prev, ok := owner[o.sheet]; ok && prev != c {
					t.Fatalf("%s: sheet %d requested by connections %d and %d", w.name, o.sheet, prev, c)
				}
				owner[o.sheet] = c
			}
		}
	}
}

func TestMixes(t *testing.T) {
	count := func(name string, n int) map[opKind]int {
		w, _ := workloadByName(name)
		got := map[opKind]int{}
		for _, o := range draw(w, 1, 0, n) {
			got[o.kind]++
		}
		return got
	}
	ep := count("edit-play", 1600)
	if ep[opRows] != 100 || ep[opPlay] != 1500 {
		t.Errorf("edit-play mix = %v, want 1500 plays and 100 rows ops", ep)
	}
	br := count("browse", 20000)
	for k, want := range map[opKind]float64{opView: 0.60, opCondView: 0.35, opPlay: 0.05} {
		if got := float64(br[k]) / 20000; got < want-0.02 || got > want+0.02 {
			t.Errorf("browse %s share = %.3f, want %.2f", k, got, want)
		}
	}
}

func TestZipfPicker(t *testing.T) {
	z := newZipf(384, 1.0)
	rng := rand.New(rand.NewSource(1))
	hits := make([]int, 384)
	const n = 200000
	for i := 0; i < n; i++ {
		hits[z.pick(rng)]++
	}
	// P(rank 0) = 1/H(384) with s = 1; H(384) ~ 6.53.
	if got := float64(hits[0]) / n; got < 0.145 || got > 0.162 {
		t.Errorf("rank 0 share = %.4f, want ~0.153", got)
	}
	if hits[0] < hits[1] || hits[1] < hits[9] || hits[9] < hits[99] {
		t.Errorf("shares not decreasing: %d %d %d %d", hits[0], hits[1], hits[9], hits[99])
	}
	top := 0
	for _, h := range hits[:256] {
		top += h
	}
	if share := float64(top) / n; share < 0.90 || share > 0.96 {
		t.Errorf("hottest 256 sheets draw %.3f of requests, want ~0.93", share)
	}
}

func TestRangePicker(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range sweepRanges {
		for i := 0; i < 500; i++ {
			s := drawSweep(rng, r)
			from, err1 := units.Parse(s.from)
			to, err2 := units.Parse(s.to)
			if err1 != nil || err2 != nil {
				t.Fatalf("%+v: unparsable ends: %v %v", s, err1, err2)
			}
			if from < r.lo || to > r.hi || from >= to {
				t.Fatalf("%+v outside [%g, %g] or empty", s, r.lo, r.hi)
			}
			if s.steps != sweepSteps || s.design != r.design || s.variable != r.variable {
				t.Fatalf("%+v does not match its table row %+v", s, r)
			}
		}
	}
	w, _ := workloadByName("sweep")
	ops := draw(w, 5, 0, 400)
	for i, o := range ops {
		if i%4 != 3 {
			continue
		}
		found := false
		for _, p := range ops[:i] {
			if p.sweep == o.sweep {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sweep %d does not repeat an earlier one", i)
		}
	}
}

const metricsText = `# HELP powerplay_http_request_seconds Request latency.
# TYPE powerplay_http_request_seconds histogram
powerplay_http_request_seconds_bucket{route="GET /design/{name}",le="0.001"} 3
powerplay_http_request_seconds_sum{route="GET /design/{name}"} 0.004
powerplay_http_request_seconds_count{route="GET /design/{name}"} 4
powerplay_http_request_seconds_sum{route="GET /design/{name}/sweep"} 1.5
powerplay_http_request_seconds_count{route="GET /design/{name}/sweep"} 3
powerplay_pagecache_events_total{event="page_hit"} 10
powerplay_store_fsync_total 2
`

func TestParseMetricsAndDeltas(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(metricsText))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.get(`powerplay_pagecache_events_total{event="page_hit"}`); got != 10 {
		t.Errorf("page_hit = %g", got)
	}
	after, err := parseMetrics(strings.NewReader(strings.NewReplacer(
		`{route="GET /design/{name}"} 0.004`, `{route="GET /design/{name}"} 0.010`,
		`{route="GET /design/{name}"} 4`, `{route="GET /design/{name}"} 6`,
		"powerplay_store_fsync_total 2", "powerplay_store_fsync_total 5",
	).Replace(metricsText) + "powerplay_shard_redirects_total 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	mean, n := d.histMean("powerplay_http_request_seconds", routeSheet)
	if n != 2 || mean < 0.0029 || mean > 0.0031 {
		t.Errorf("sheet route delta mean = %g over %g, want 0.003 over 2", mean, n)
	}
	if _, n := d.histMean("powerplay_http_request_seconds", routeSweep); n != 0 {
		t.Errorf("sweep route delta count = %g, want 0 (the route label must not match the sheet route)", n)
	}
	if got := d.get("powerplay_store_fsync_total"); got != 3 {
		t.Errorf("fsync delta = %g, want 3", got)
	}
	if got := d.get("powerplay_shard_redirects_total"); got != 1 {
		t.Errorf("a series new in the second scrape counts from zero: got %g", got)
	}
	if _, err := parseMetrics(strings.NewReader("powerplay_x{a=\"b\"}\n")); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %g, counted %v; want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(xs[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples (%g) has only 9 beyond but counted", v)
	}
	if v, ok := percentile(xs[:21], 0.50); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %g, counted %v; want 11 with 10 beyond", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples counted")
	}
}

func TestCheckerRejectsEvaluationErrorPage(t *testing.T) {
	page := []byte(`<p class="err">sheet: custom_hardware/luminance: no model named &#34;macro.luminance&#34; in library</p>
<tr class="total"><td>TOTAL</td><td class="num"></td></tr>`)
	err := checkSheetPage(page, []string{""})
	if err == nil || !strings.Contains(err.Error(), `no model named "macro.luminance"`) {
		t.Fatalf("error page accepted or reason lost: %v", err)
	}
	ok := []byte(`<td class="num">1.000e&#43;00W</td><td class="num">2mm^2</td>`)
	if err := checkSheetPage(ok, []string{"1.000e+00W", "2mm^2"}); err != nil {
		t.Errorf("matching page rejected: %v", err)
	}
	if err := checkSheetPage(ok, []string{"1.000e+00W", "3mm^2"}); err == nil {
		t.Error("page with a wrong number accepted")
	}
	stale := []byte(`<td class="num">1.2pJ <span class="stale" title="publisher down">(stale)</span></td>`)
	if got := pageCells(stale); len(got) != 1 || got[0] != "1.2pJ" {
		t.Errorf("stale cell = %q, want the number without the note", got)
	}
}

// TestAgainstInProcessSite runs every workload's operations against an
// in-process server: the checker must accept every response, and no
// seeded edit, row or sweep may fail to evaluate.
func TestAgainstInProcessSite(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			srv, err := web.NewServer(web.Config{DataDir: t.TempDir(), Durability: "interval"}, library.Standard())
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if err := seedDemo(srv); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			reg, err := siteRegistry()
			if err != nil {
				t.Fatal(err)
			}
			s := newSite(w, 11)
			c := newConn(ts.URL, true)
			defer c.close()
			if err := s.populate(c, reg); err != nil {
				t.Fatal(err)
			}
			rng := newCheckRNG(11)
			s.checkRanges(c, rng)
			n := 300
			if w.primary == classSweep {
				n = 40
			}
			for i := 0; i < n; i++ {
				for _, g := range s.streams {
					o := g.next()
					o.check = true
					if res := s.exec(c, o, rng, nil); res.err != nil {
						s.fails.add("op", res.err)
					}
				}
			}
			if s.fails.n > 0 {
				t.Fatalf("%d failures, first: %v", s.fails.n, s.fails.first)
			}
		})
	}
}

func TestSweepCheckerCatchesWrongPoint(t *testing.T) {
	reg, err := siteRegistry()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := web.NewServer(web.Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if err := seedDemo(srv); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	w, _ := workloadByName("sweep")
	s := newSite(w, 1)
	c := newConn(ts.URL, false)
	defer c.close()
	if err := s.populate(c, reg); err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec{design: "Luminance_2", variable: "vdd", from: "1", to: "3", steps: 10}
	sheet := s.streams[0].sheetOf("Luminance_2")
	r, err := c.do("GET", "/design/Luminance_2/sweep", s.cookies[s.pop[sheet].user],
		map[string][]string{"var": {"vdd"}, "from": {"1"}, "to": {"3"}, "steps": {"10"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweepPage(r.body, s.shadows[sheet].d, spec, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("correct sweep page rejected: %v", err)
	}
	pts, err := (&explore.Runner{Workers: 1}).Sweep(context.Background(), s.shadows[sheet].d, "vdd", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	wrong := strings.Replace(string(r.body), units.Watts(pts[0].Power).String(), "1W", 1)
	if err := checkSweepPage([]byte(wrong), s.shadows[sheet].d, spec, rand.New(rand.NewSource(1))); err == nil {
		t.Error("sweep page with a wrong end point accepted")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// harness reads, in step with the metric and workload tables the
// benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better, Why string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, e := range b.Workloads {
		w, ok := workloadByName(e.Name)
		if !ok || w.why != e.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q does not match the table", e.Name, e.Why)
		}
		if w != nil && w.notes != "" {
			t.Errorf("workload %s has a known defect that fails operations; the harness needs workloads on which none fail", e.Name)
		}
	}
}
