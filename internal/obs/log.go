package obs

// Structured logging and request-ID propagation.
//
// Every HTTP request gets an ID at the edge (the web middleware) that
// travels in the request context, so a log line written deep inside
// sheet evaluation, the sweep runner, or the remote model client
// carries the same request_id the access log and the JSON error
// envelope show the client.  Code that logs takes whatever context it
// already has and calls obs.Log(ctx) — no logger plumbing through
// APIs, and outside a request (tests, CLI tools, background refresh)
// it degrades to slog.Default().  The request-tagged logger is
// composed lazily at the log site, not per request: requests that log
// nothing (the overwhelming hot path) pay one context value, no
// logger allocation.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
)

type ctxKey int

const requestIDKey ctxKey = 0

// NewRequestID mints a fresh request ID: 8 random bytes, hex-encoded.
// Collisions across a log-retention window are about as likely as a
// disk flipping the same bits.  One allocation (the returned string):
// this runs once per HTTP request.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is not recoverable
	}
	var dst [16]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// RequestIDFrom returns the ID a server adopts for a request whose
// client sent id: id itself when it is short and printable-safe (at
// most 64 bytes of [A-Za-z0-9._-]), otherwise a fresh NewRequestID, so
// a hostile header cannot smuggle log-breaking bytes or unbounded junk.
// The router and the backends apply this one rule, so a routed request
// keeps one ID from the front door to the backend's logs.
func RequestIDFrom(id string) string {
	if id == "" || len(id) > 64 {
		return NewRequestID()
	}
	for _, r := range id {
		ok := r == '-' || r == '_' || r == '.' ||
			r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !ok {
			return NewRequestID()
		}
	}
	return id
}

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID, or "" outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// Log returns slog.Default(), tagged with the context's request_id in
// a request.  A nil context is tolerated so helpers without one still
// log.  The tagged logger is built here, at the (rare) log site, so
// carrying an ID through the (hot) non-logging path costs nothing.
func Log(ctx context.Context) *slog.Logger {
	if ctx != nil {
		if id, ok := ctx.Value(requestIDKey).(string); ok {
			return slog.Default().With("request_id", id)
		}
	}
	return slog.Default()
}
