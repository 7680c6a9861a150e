package web

import (
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and parses it into sample values plus the
// declared family types.
func scrape(t *testing.T, base string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	blob, _ := io.ReadAll(resp.Body)
	samples = make(map[string]float64)
	types = make(map[string]string)
	for _, line := range strings.Split(string(blob), "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

// TestMetricsSmoke drives one of everything through a site — sheet GETs
// (miss then hits), a sweep, API evaluations, an API error — then
// scrapes /metrics and checks the contract: the exported families are
// exactly the table's, each with its type, histogram buckets are
// cumulative, and counters are monotonic across scrapes.
func TestMetricsSmoke(t *testing.T) {
	_, base, c := sheetSite(t)
	for i := 0; i < 3; i++ {
		if code, _ := fetch(t, c, base+"/design/d"); code != 200 {
			t.Fatalf("sheet GET: %d", code)
		}
	}
	if code, _ := fetch(t, c, base+"/design/d/sweep?var=vdd&from=1&to=3&steps=5"); code != 200 {
		t.Fatalf("sweep GET: %d", code)
	}
	// Two edit-Plays so the incremental engine records a dirty-cone run
	// on top of full runs: the first introduces the global (a structural
	// change, full recompute), the second rebinds it (incremental).
	post(t, c, base+"/design/d/play", url.Values{"glob_vdd": {"1.8"}})
	post(t, c, base+"/design/d/play", url.Values{"glob_vdd": {"2.1"}})
	if code, _ := fetch(t, c, base+"/design/d"); code != 200 {
		t.Fatal("post-Play GET failed")
	}
	evalBody := `{"model":"` + "sram" + `","params":{}}`
	doAPI(t, "POST", base+"/api/v1/eval", evalBody, nil) // error path is fine
	doAPI(t, "GET", base+"/api/v1/models", "", nil)

	samples, types := scrape(t, base)

	// The contract: every family the test binary registers — HTTP edge,
	// caches, sweep runner, evaluation plans, expression compiler,
	// remote client and breakers, federation, sharding, durability —
	// is exported with its type, and the exposition declares no family
	// this table does not list.  A new family must be added here.
	wantFamilies := map[string]string{
		"powerplay_breaker_transitions_total":         "counter",
		"powerplay_explore_batch_points_total":        "counter",
		"powerplay_explore_cancellations_total":       "counter",
		"powerplay_explore_chunks_total":              "counter",
		"powerplay_explore_points_total":              "counter",
		"powerplay_explore_worker_busy_seconds_total": "counter",
		"powerplay_expr_program_compiles_total":       "counter",
		"powerplay_http_inflight_requests":            "gauge",
		"powerplay_http_panics_total":                 "counter",
		"powerplay_http_request_seconds":              "histogram",
		"powerplay_http_requests_total":               "counter",
		"powerplay_pagecache_events_total":            "counter",
		"powerplay_remote_attempts_total":             "counter",
		"powerplay_remote_retries_total":              "counter",
		"powerplay_remote_stale_serves_total":         "counter",
		"powerplay_repo_digest_checks_total":          "counter",
		"powerplay_repo_mirror_models":                "gauge",
		"powerplay_repo_mirror_serves_total":          "counter",
		"powerplay_repo_sync_lag_seconds":             "gauge",
		"powerplay_repo_sync_runs_total":              "counter",
		"powerplay_shard_breaker_transitions_total":   "counter",
		"powerplay_shard_lookups_total":               "counter",
		"powerplay_shard_proxied_requests_total":      "counter",
		"powerplay_shard_redirects_total":             "counter",
		"powerplay_shard_rejected_total":              "counter",
		"powerplay_shard_replications_total":          "counter",
		"powerplay_sheet_batch_steps_total":           "counter",
		"powerplay_sheet_dirty_slots":                 "histogram",
		"powerplay_sheet_incremental_plays_total":     "counter",
		"powerplay_sheet_plan_compiles_total":         "counter",
		"powerplay_sheet_plan_fallbacks_total":        "counter",
		"powerplay_store_append_seconds":              "histogram",
		"powerplay_store_fsync_total":                 "counter",
		"powerplay_store_journal_lag_records":         "gauge",
		"powerplay_store_replay_records_total":        "counter",
		"powerplay_store_snapshot_seconds":            "histogram",
		"powerplay_store_truncations_total":           "counter",
		"powerplay_sweepcache_points_total":           "counter",
	}
	for name, typ := range wantFamilies {
		if got, ok := types[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		} else if got != typ {
			t.Errorf("family %s has type %s, want %s", name, got, typ)
		}
	}
	for name, typ := range types {
		if _, ok := wantFamilies[name]; !ok {
			t.Errorf("family %s (%s) is exported but missing from the contract table", name, typ)
		}
	}

	// Traffic landed where it should.
	if samples[`powerplay_http_requests_total{route="GET /design/{name}",method="GET",status="200"}`] < 3 {
		t.Error("sheet GETs not counted")
	}
	if samples[`powerplay_pagecache_events_total{event="page_hit"}`] < 1 ||
		samples[`powerplay_pagecache_events_total{event="page_miss"}`] < 1 {
		t.Error("pagecache hit/miss not counted")
	}
	if samples["powerplay_explore_points_total"] < 5 {
		t.Errorf("explore points = %v, want >= 5",
			samples["powerplay_explore_points_total"])
	}

	// The incremental engine saw both a full run (first miss) and a
	// dirty-cone run (the second edit-Play), and recorded cone sizes.
	if samples[`powerplay_sheet_incremental_plays_total{mode="full"}`] < 1 {
		t.Error("no full incremental-engine run counted")
	}
	if samples[`powerplay_sheet_incremental_plays_total{mode="incremental"}`] < 1 {
		t.Error("no incremental (dirty-cone) run counted")
	}
	if samples["powerplay_sheet_dirty_slots_count"] < 2 {
		t.Error("dirty-slot histogram missing observations")
	}

	// Histogram buckets are cumulative (non-decreasing in le order) and
	// the +Inf bucket equals _count, per series.
	checkHistogram(t, samples, "powerplay_http_request_seconds")
	checkHistogram(t, samples, "powerplay_sheet_dirty_slots")

	// Counters are monotonic: more traffic never decreases any counter
	// sample present in both scrapes.
	if code, _ := fetch(t, c, base+"/design/d"); code != 200 {
		t.Fatal("second-round GET failed")
	}
	again, _ := scrape(t, base)
	for key, v := range samples {
		name, _, _ := strings.Cut(key, "{")
		name = strings.TrimSuffix(name, "_bucket")
		name = strings.TrimSuffix(name, "_sum")
		name = strings.TrimSuffix(name, "_count")
		if types[name] == "gauge" {
			continue
		}
		if v2, ok := again[key]; ok && v2 < v {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, v2)
		}
	}
}

// checkHistogram validates the cumulative-bucket invariant for every
// series of one histogram family.
func checkHistogram(t *testing.T, samples map[string]float64, fam string) {
	t.Helper()
	type bkt struct {
		le  float64
		cum float64
	}
	series := make(map[string][]bkt) // non-le labels -> buckets
	for key, v := range samples {
		rest, ok := strings.CutPrefix(key, fam+"_bucket{")
		if !ok {
			continue
		}
		i := strings.LastIndex(rest, `le="`)
		if i < 0 {
			t.Fatalf("bucket without le: %s", key)
		}
		labels := strings.TrimSuffix(rest[:i], ",")
		leStr := strings.TrimSuffix(rest[i+len(`le="`):], `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le in %s: %v", key, err)
			}
			le = f
		}
		series[labels] = append(series[labels], bkt{le, v})
	}
	if len(series) == 0 {
		t.Fatalf("no bucket series for %s", fam)
	}
	for labels, buckets := range series {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		prev := 0.0
		for _, b := range buckets {
			if b.cum < prev {
				t.Errorf("%s{%s}: bucket le=%v decreases (%v < %v)", fam, labels, b.le, b.cum, prev)
			}
			prev = b.cum
		}
		inf := buckets[len(buckets)-1]
		if !math.IsInf(inf.le, 1) {
			t.Errorf("%s{%s}: no +Inf bucket", fam, labels)
		}
		countKey := fam + "_count"
		if labels != "" {
			countKey += "{" + labels + "}"
		}
		if count, ok := samples[countKey]; !ok || count != inf.cum {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", fam, labels, inf.cum, count)
		}
	}
}
