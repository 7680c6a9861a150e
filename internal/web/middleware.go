package web

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"powerplay/internal/obs"
	"powerplay/internal/shard"
)

// Server-side hardening for a site under heavy (or hostile) traffic:
// the handler stack returned by Server.Handler wraps the application
// mux in, outermost first,
//
//  1. panic recovery — one evaluating model that panics turns into a
//     500 and a logged stack, not a dead worker process;
//  2. a request-body cap — no client can stream an unbounded design
//     import (or eval payload) into memory; and
//  3. a per-request context timeout — every handler's r.Context() has
//     a deadline, so a stalled remote model or a pathological sweep
//     cannot hold a connection forever.
//
// Transport-level limits (header read timeout, idle timeout, graceful
// shutdown) belong to the http.Server that fronts this handler — see
// cmd/powerplay.

// maxBodyBytes caps every request body: the fleet's one cap, which the
// shard router enforces too.
const maxBodyBytes = shard.MaxBodyBytes

// minRequestTimeout is the floor of one request's context deadline:
// comfortably above the 30 s default sweep budget, far below "forever".
const minRequestTimeout = 2 * time.Minute

// recoverMiddleware converts handler panics into 500 responses with a
// logged stack trace.  http.ErrAbortHandler passes through: it is the
// sanctioned way to drop a connection mid-response.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			httpPanics.Inc()
			// The request-ID middleware runs inside this one but stamps
			// the response header before calling down, so the panic line
			// still correlates with the request's other log lines.
			obs.Log(r.Context()).Error("panic serving request",
				"method", r.Method, "path", r.URL.Path,
				"request_id", w.Header().Get(requestIDHeader),
				"panic", p, "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote headers this is
			// a no-op and the connection is dropped instead.
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// requestIDHeader carries the per-request ID in both directions: a
// client (or fronting proxy) may supply one, and every response echoes
// the ID that ended up in the logs and the JSON error envelope.
const requestIDHeader = "X-Request-ID"

// requestIDMiddleware assigns every request an ID, echoes it in the
// response header, and stores it in the request context, so any log
// line written below this point (sheet eval, sweep runner, remote
// client — all via obs.Log) correlates with the access log and with
// what the client saw.
func requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.RequestIDFrom(r.Header.Get(requestIDHeader))
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// statusRecorder captures the status code a handler writes, so the
// instrumentation wrapper can label its counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (rec *statusRecorder) WriteHeader(code int) {
	if !rec.wrote {
		rec.status = code
		rec.wrote = true
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	rec.wrote = true
	return rec.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it streams.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route's handler with the per-route metrics —
// status-labeled request counter, latency histogram, in-flight gauge —
// and a structured access line carrying the request ID.  The histogram
// child is resolved once per route at registration, so the per-request
// cost is the observation itself.
func instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := httpLatency.With(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		httpInflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		finished := false
		defer func() {
			httpInflight.Add(-1)
			status := rec.status
			if !finished {
				// The handler panicked; the recovery middleware will
				// answer 500 after this defer runs.
				status = http.StatusInternalServerError
			}
			dur := time.Since(start)
			hist.Observe(dur.Seconds())
			httpRequests.With(pattern, r.Method, statusLabel(status)).Inc()
			// The access line: Warn on server errors, Debug otherwise.
			// The Enabled gate keeps the hot path from boxing log args
			// (or composing the tagged logger) just to drop them.
			if status >= 500 {
				obs.Log(r.Context()).Warn("http request",
					"route", pattern, "status", status, "dur_ms", dur.Milliseconds())
			} else if slog.Default().Enabled(r.Context(), slog.LevelDebug) {
				obs.Log(r.Context()).Debug("http request",
					"route", pattern, "status", status, "dur_us", dur.Microseconds())
			}
		}()
		h(rec, r)
		finished = true
	}
}

// statusLabel spells a status code for the request counter without
// allocating on the codes this server actually answers.
func statusLabel(status int) string {
	switch status {
	case 200:
		return "200"
	case 302:
		return "302"
	case 303:
		return "303"
	case 304:
		return "304"
	case 400:
		return "400"
	case 401:
		return "401"
	case 404:
		return "404"
	case 421:
		return "421"
	case 422:
		return "422"
	case 500:
		return "500"
	case 502:
		return "502"
	case 503:
		return "503"
	}
	return strconv.Itoa(status)
}

// limitBodyMiddleware caps every request body at max bytes.  Reads past
// the cap fail and MaxBytesReader closes the connection, so oversized
// payloads surface as request errors in whatever handler is decoding.
func limitBodyMiddleware(next http.Handler, max int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, max)
		}
		next.ServeHTTP(w, r)
	})
}

// timeoutMiddleware gives every request context a deadline.  Handlers
// that respect r.Context() (the sweep engine, remote fetches) stop; the
// rest at least inherit a bounded outgoing-call budget.
func timeoutMiddleware(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// acceptsGzip reports whether the client's Accept-Encoding admits a
// gzip response body: a "gzip" or "*" coding whose quality is not
// zero.  Used by the cached sheet page path, which pays compression
// once per generation and serves the stored bytes to every willing
// client afterwards (with Vary: Accept-Encoding keeping shared caches
// honest).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if coding != "gzip" && coding != "*" {
			continue
		}
		q := strings.TrimSpace(params)
		if strings.HasPrefix(q, "q=") {
			switch strings.TrimPrefix(q, "q=") {
			case "0", "0.", "0.0", "0.00", "0.000":
				continue
			}
		}
		return true
	}
	return false
}
