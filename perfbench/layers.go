package main

import "sort"

// A metric is one number the benchmark reports: its name, unit, which
// direction is better, and — for per-layer metrics — the end-to-end
// metric and workload it should move.  Metrics in the json lists below
// are the ones BENCHMARK.json declares and every workload reports;
// the others are printed where the workload does that kind of work.
type metric struct {
	name, unit, better string
	moves              string
	value              func(m *measure) float64
	// count returns the sample count behind the value; nil means the
	// value is a ratio of window totals.
	count func(m *measure) int
	// counted reports whether a percentile has ten samples beyond it;
	// nil for other metrics.
	counted func(m *measure) bool
}

// endToEnd are the metrics a user of the site sees, measured with
// tracing off.  p50_ms times the workload's primary operation: edits on
// edit-play, views on browse and routed, sweeps on sweep.  Throughput
// and p50 are medians over the window's sub-windows (see sliceStats).
// The p90 and p99 of every operation class are printed beside them,
// with their sample counts, but carry no bound: on a shared two-CPU
// machine they track how often outside load stalls the CPUs or the
// disk (edit-play's p99 is set by the journal's background fsync,
// which holds the journal lock about once per 55 requests), and their
// run-to-run spread exceeds any bound worth enforcing.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower",
		value: func(m *measure) float64 { return median(m.setups) },
		count: func(m *measure) int { return len(m.setups) }},
	{name: "throughput_rps", unit: "1/s", better: "higher",
		value: func(m *measure) float64 {
			return sliceMedian(m.slices, func(s sliceStat) float64 { return s.throughput })
		}},
	{name: "p50_ms", unit: "ms", better: "lower",
		value: func(m *measure) float64 { return sliceMedian(m.slices, func(s sliceStat) float64 { return s.p50 }) },
		count: func(m *measure) int { return len(m.lat[m.w.primary]) }},
	{name: "server_cpu_ms_per_req", unit: "ms", better: "lower",
		value: func(m *measure) float64 { return 1000 * m.cpu / float64(m.sent) }},
	{name: "server_rss_mb", unit: "MiB", better: "lower",
		value: func(m *measure) float64 { return m.rss }},
}

// perClass are the end-to-end figures per operation class over the
// whole window, printed wherever the workload has that class.
func perClass() []metric {
	var out []metric
	for _, c := range []opClass{classEdit, classView, classSweep} {
		c := c
		n := func(m *measure) int { return len(m.lat[c]) }
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			q := q
			out = append(out, metric{name: c.String() + "_" + q.name + "_ms", unit: "ms", count: n,
				value:   func(m *measure) float64 { v, _ := percentile(m.lat[c], q.q); return v },
				counted: func(m *measure) bool { _, ok := percentile(m.lat[c], q.q); return ok }})
		}
	}
	return append(out,
		metric{name: "sweep_points_per_s", unit: "1/s",
			value: func(m *measure) float64 { return float64(m.points) / m.window },
			count: func(m *measure) int { return len(m.lat[classSweep]) }},
		metric{name: "failed_ratio", unit: "1",
			value: func(m *measure) float64 { return ratio(float64(m.windowFails.n), float64(m.ops)) },
			count: func(m *measure) int { return int(m.ops) }},
	)
}

// Route labels of powerplay_http_request_seconds for the operations.
const (
	routeSheet = `route="GET /design/{name}"`
	routePlay  = `route="POST /design/{name}/play"`
	routeRows  = `route="POST /design/{name}/rows"`
	routeSweep = `route="GET /design/{name}/sweep"`
)

var opRoutes = []string{routeSheet, routePlay, routeRows, routeSweep}

// perLayer are the per-layer metrics every workload reports with
// --trace 1.  Those marked † in their moves note come from the traced
// in-process replay; the rest are /metrics deltas over the untraced
// window (or, for recovery, the reboot before it).
var perLayer = []metric{
	{name: "web.handler_ms", unit: "ms", better: "lower", moves: "edit_p50_ms on edit-play, view_p50_ms on browse, sweep_p50_ms on sweep",
		value: func(m *measure) float64 { return 1000 * m.handlerMean() }},
	{name: "web.outside_handler_ms", unit: "ms", better: "lower", moves: "throughput_rps on every workload",
		value: func(m *measure) float64 { return 1000 * (m.clientMean() - m.handlerMean()) }},
	{name: "web.pagecache_hit_ratio", unit: "1", better: "higher", moves: "view_p50_ms and throughput_rps on browse; none on edit-play, where every Play invalidates the page",
		value: func(m *measure) float64 {
			hit := m.d.get(`powerplay_pagecache_events_total{event="page_hit"}`)
			return ratio(hit, hit+m.d.get(`powerplay_pagecache_events_total{event="page_miss"}`))
		}},
	{name: "web.cache_evictions_per_1k", unit: "count", better: "lower", moves: "view_p50_ms and throughput_rps on browse",
		value: func(m *measure) float64 { return m.per1k(m.d.sum("powerplay_webcache_evictions_total")) }},
	{name: "web.response_kb", unit: "KiB", better: "lower", moves: "throughput_rps on browse",
		value: func(m *measure) float64 { return ratio(float64(m.wire), float64(m.sent)) / 1024 }},
	{name: "web.self_ms", unit: "ms", better: "lower", moves: "edit_p50_ms on edit-play: render, form parse, gzip, locks †",
		value: func(m *measure) float64 { return 1000 * m.tr.selfMean() }},
	{name: "sheet.dirty_slots_per_play", unit: "count", better: "lower", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 {
			mean, _ := m.d.histMean("powerplay_sheet_dirty_slots")
			return mean
		}},
	{name: "sheet.plays_incremental_per_1k", unit: "count", better: "higher", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 {
			return m.per1k(m.d.get(`powerplay_sheet_incremental_plays_total{mode="incremental"}`))
		}},
	{name: "sheet.plays_full_per_1k", unit: "count", better: "lower", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 {
			return m.per1k(m.d.get(`powerplay_sheet_incremental_plays_total{mode="full"}`))
		}},
	{name: "sheet.plays_fallback_per_1k", unit: "count", better: "lower", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 {
			return m.per1k(m.d.get(`powerplay_sheet_incremental_plays_total{mode="fallback"}`))
		}},
	{name: "sheet.plan_compiles_per_1k", unit: "count", better: "lower", moves: "edit_p99_ms on edit-play and sweep_p50_ms on sweep",
		value: func(m *measure) float64 { return m.per1k(m.d.sum("powerplay_sheet_plan_compiles_total")) }},
	{name: "sheet.plan_fallbacks", unit: "count", better: "lower", moves: "edit_p99_ms on edit-play and sweep_p50_ms on sweep",
		value: func(m *measure) float64 { return m.d.get("powerplay_sheet_plan_fallbacks_total") }},
	{name: "sheet.batch_steps_per_point", unit: "count", better: "lower", moves: "sweep_points_per_s on sweep",
		value: func(m *measure) float64 {
			return ratio(m.d.sum("powerplay_sheet_batch_steps_total"), m.d.get("powerplay_explore_points_total"))
		}},
	{name: "sheet.share", unit: "1", better: "lower", moves: "edit_p50_ms on edit-play, view_p99_ms on browse through the miss path †",
		value: func(m *measure) float64 { return m.tr.share("sheet") }},
	{name: "explore.points_per_busy_s", unit: "1/s", better: "higher", moves: "sweep_points_per_s and sweep_p50_ms on sweep; none elsewhere",
		value: func(m *measure) float64 {
			return ratio(m.d.get("powerplay_explore_points_total"), m.d.get("powerplay_explore_worker_busy_seconds_total"))
		}},
	{name: "explore.columnar_share", unit: "1", better: "higher", moves: "sweep_points_per_s on sweep",
		value: func(m *measure) float64 {
			return ratio(m.d.get(`powerplay_explore_batch_points_total{path="columnar"}`), m.d.sum("powerplay_explore_batch_points_total"))
		}},
	{name: "explore.sweepcache_hit_ratio", unit: "1", better: "higher", moves: "sweep_points_per_s and sweep_p50_ms on sweep",
		value: func(m *measure) float64 {
			hit := m.d.get(`powerplay_sweepcache_points_total{event="hit"}`)
			return ratio(hit, hit+m.d.get(`powerplay_sweepcache_points_total{event="miss"}`))
		}},
	{name: "explore.cancellations", unit: "count", better: "lower", moves: "sweep_points_per_s on sweep",
		value: func(m *measure) float64 { return m.d.get("powerplay_explore_cancellations_total") }},
	{name: "explore.share", unit: "1", better: "lower", moves: "sweep_p50_ms on sweep †",
		value: func(m *measure) float64 { return m.tr.share("explore") }},
	{name: "store.appends_per_req", unit: "count", better: "lower", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 {
			return ratio(m.d.get("powerplay_store_append_seconds_count"), float64(m.sent))
		}},
	{name: "store.fsyncs_per_1k_req", unit: "count", better: "lower", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 { return m.per1k(m.d.get("powerplay_store_fsync_total")) }},
	{name: "store.snapshots_per_1k_req", unit: "count", better: "lower", moves: "edit_p99_ms on edit-play, not edit_p50_ms",
		value: func(m *measure) float64 { return m.per1k(m.d.get("powerplay_store_snapshot_seconds_count")) }},
	{name: "store.bytes_per_req", unit: "B", better: "lower", moves: "edit_p50_ms on edit-play †",
		value: func(m *measure) float64 { return ratio(float64(m.tr.stBytes), float64(m.tr.ops)) }},
	{name: "store.replay_records", unit: "count", better: "lower", moves: "setup_s",
		value: func(m *measure) float64 { return m.replayRecords }},
	{name: "store.recovery_ms", unit: "ms", better: "lower", moves: "setup_s",
		value: func(m *measure) float64 { return m.recoveryMs }},
	{name: "store.share", unit: "1", better: "lower", moves: "edit_p50_ms on edit-play †",
		value: func(m *measure) float64 { return m.tr.share("store") }},
	{name: "expr.compiles_per_1k_req", unit: "count", better: "lower", moves: "edit_p50_ms on edit-play",
		value: func(m *measure) float64 { return m.per1k(m.d.get("powerplay_expr_program_compiles_total")) }},
	{name: "expr.share", unit: "1", better: "lower", moves: "edit_p50_ms on edit-play †",
		value: func(m *measure) float64 { return m.tr.nameShare("expr.compile") }},
	{name: "shard.proxied_per_req", unit: "count", better: "lower", moves: "view_p50_ms and throughput_rps on routed only",
		value: func(m *measure) float64 {
			return ratio(m.d.sum("powerplay_shard_proxied_requests_total"), float64(m.sent))
		}},
	{name: "shard.redirects", unit: "count", better: "lower", moves: "view_p50_ms and throughput_rps on routed only",
		value: func(m *measure) float64 { return m.d.get("powerplay_shard_redirects_total") }},
	{name: "shard.rejected", unit: "count", better: "lower", moves: "throughput_rps on routed only",
		value: func(m *measure) float64 { return m.d.get("powerplay_shard_rejected_total") }},
	{name: "runtime.alloc_kb_per_req", unit: "KiB", better: "lower", moves: "throughput_rps and server_cpu_ms_per_req on browse and edit-play †",
		value: func(m *measure) float64 { return ratio(m.tr.alloc, float64(m.tr.requests())) / 1024 }},
	{name: "runtime.gc_per_1k_req", unit: "count", better: "lower", moves: "throughput_rps and server_cpu_ms_per_req on browse and edit-play †",
		value: func(m *measure) float64 { return 1000 * ratio(m.tr.gc, float64(m.tr.requests())) }},
	{name: "trace.request_ms", unit: "ms", better: "lower", moves: "p50_ms, timed in process without the network †",
		value: func(m *measure) float64 { return 1000 * mean(m.tr.request) }},
	{name: "trace.throughput_rps", unit: "1/s", better: "higher", moves: "throughput_rps (traced, in-process) †",
		value: func(m *measure) float64 { return ratio(float64(m.tr.ops), m.tr.seconds) }},
	{name: "trace.gap_ratio", unit: "1", better: "lower", moves: "traced in-process throughput over untraced binary throughput †",
		value: func(m *measure) float64 {
			return ratio(ratio(float64(m.tr.ops), m.tr.seconds), float64(m.correct)/m.window)
		}},
}

// layerExtras are per-layer timings printed where the workload does
// that kind of work; they are absent (not zero) elsewhere, so they are
// not in BENCHMARK.json.
func layerExtras(m *measure) []metric {
	var out []metric
	routes := []struct{ name, route, moves string }{
		{"web.handler_ms.sheet_get", routeSheet, "view_p50_ms on browse"},
		{"web.handler_ms.play", routePlay, "edit_p50_ms on edit-play"},
		{"web.handler_ms.rows", routeRows, "edit_p99_ms on edit-play"},
		{"web.handler_ms.sweep", routeSweep, "sweep_p50_ms on sweep"},
	}
	for _, r := range routes {
		r := r
		if _, n := m.d.histMean("powerplay_http_request_seconds", r.route); n > 0 {
			out = append(out, metric{name: r.name, unit: "ms", moves: r.moves,
				value: func(m *measure) float64 {
					v, _ := m.d.histMean("powerplay_http_request_seconds", r.route)
					return 1000 * v
				},
				count: func(m *measure) int {
					_, n := m.d.histMean("powerplay_http_request_seconds", r.route)
					return int(n)
				}})
		}
	}
	hist := []struct{ name, family, moves string }{
		{"store.append_ms", "powerplay_store_append_seconds", "edit_p50_ms on edit-play"},
		{"store.snapshot_ms", "powerplay_store_snapshot_seconds", "edit_p99_ms on edit-play, not edit_p50_ms"},
	}
	for _, h := range hist {
		h := h
		if _, n := m.d.histMean(h.family); n > 0 {
			out = append(out, metric{name: h.name, unit: "ms", moves: h.moves,
				value: func(m *measure) float64 { v, _ := m.d.histMean(h.family); return 1000 * v },
				count: func(m *measure) int { _, n := m.d.histMean(h.family); return int(n) }})
		}
	}
	out = append(out, metric{name: "client.cpu_ms_per_req", unit: "ms",
		moves: "throughput_rps on every workload: the generator shares the CPUs with the server",
		value: func(m *measure) float64 { return 1000 * ratio(m.clientCPU, float64(m.sent)) }})
	if m.w.routed {
		out = append(out, metric{name: "shard.hop_ms", unit: "ms", moves: "view_p50_ms and throughput_rps on routed",
			value: func(m *measure) float64 { return 1000 * (m.clientMean() - m.handlerMean()) }})
	}
	if m.tr == nil {
		return out
	}
	spans := []struct{ name, unit, moves string }{
		{"sheet.apply", "us", "edit_p50_ms on edit-play †"},
		{"sheet.play", "us", "edit_p50_ms on edit-play †"},
		{"sheet.evaluate", "us", "view_p99_ms on browse through the miss path †"},
		{"sheet.clone", "us", "sweep_p50_ms on sweep †"},
		{"explore.sweep", "ms", "sweep_p50_ms and sweep_points_per_s on sweep †"},
		{"expr.compile", "us", "edit_p50_ms on edit-play †"},
	}
	for _, s := range spans {
		s := s
		if len(m.tr.byName[s.name]) == 0 {
			continue
		}
		scale := 1e6
		if s.unit == "ms" {
			scale = 1e3
		}
		out = append(out, metric{name: s.name + "_" + s.unit, unit: s.unit, moves: s.moves,
			value: func(m *measure) float64 { return scale * mean(m.tr.byName[s.name]) },
			count: func(m *measure) int { return len(m.tr.byName[s.name]) }})
	}
	kinds := make([]string, 0, len(m.tr.byKind))
	for k := range m.tr.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		k := k
		out = append(out, metric{name: "web.self_ms." + k, unit: "ms", moves: "the p50 of this operation's class: render, form parse, gzip, locks †",
			value: func(m *measure) float64 { return 1000 * mean(m.tr.byKind[k]) },
			count: func(m *measure) int { return len(m.tr.byKind[k]) }})
	}
	return out
}

// selfMean is the mean web self time per traced operation.
func (t *tracedRun) selfMean() float64 {
	var all []float64
	for _, xs := range t.byKind {
		all = append(all, xs...)
	}
	return mean(all)
}

// share is a layer's fraction of the traced request time.
func (t *tracedRun) share(layer string) float64 {
	total := 0.0
	for _, r := range t.request {
		total += r
	}
	return ratio(t.layerSum[layer], total)
}

func (t *tracedRun) nameShare(name string) float64 {
	total, part := 0.0, 0.0
	for _, r := range t.request {
		total += r
	}
	for _, d := range t.byName[name] {
		part += d
	}
	return ratio(part, total)
}

func (t *tracedRun) requests() int { return len(t.request) }
