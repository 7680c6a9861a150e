package web

// The web layer's instrument families, all registered in obs.Default
// and served by GET /metrics (see obs's package documentation for the
// naming and label-cardinality rules).  Route labels are the literal
// mux patterns — a small closed set — never request paths; event and
// outcome labels are enumerations fixed in code.

import "powerplay/internal/obs"

var (
	// HTTP edge.
	httpRequests = obs.NewCounterVec("powerplay_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.",
		"route", "method", "status")
	httpLatency = obs.NewHistogramVec("powerplay_http_request_seconds",
		"HTTP request service time, by route pattern.", nil, "route")
	httpInflight = obs.NewGauge("powerplay_http_inflight_requests",
		"Requests currently being served.")
	httpPanics = obs.NewCounter("powerplay_http_panics_total",
		"Handler panics converted to 500s by the recovery middleware.")

	// Sheet read path (pagecache.go).
	pageCacheEvents = obs.NewCounterVec("powerplay_pagecache_events_total",
		"Sheet read-path cache traffic: evaluation memo (result_*) and rendered page (page_*) hits and misses.",
		"event")

	// Remote model protocol client (remote.go, retry.go, breaker.go).
	remoteAttempts = obs.NewCounterVec("powerplay_remote_attempts_total",
		"Remote protocol HTTP attempts, by outcome (ok/transport/server/payload/app).",
		"outcome")
	remoteRetries = obs.NewCounter("powerplay_remote_retries_total",
		"Remote protocol re-attempts after a failed try.")
	remoteStaleServes = obs.NewCounter("powerplay_remote_stale_serves_total",
		"Proxy evaluations served from the last-known-good cache while the publisher was unavailable.")
	// powerplay_breaker_transitions_total moved to internal/circuit with
	// the breaker itself (PR 9); the family is registered there.
)

// failKind's outcome label for remoteAttempts.
func (k failKind) String() string {
	switch k {
	case failNone:
		return "ok"
	case failTransport:
		return "transport"
	case failServer:
		return "server"
	case failPayload:
		return "payload"
	case failApp:
		return "app"
	}
	return "unknown"
}
