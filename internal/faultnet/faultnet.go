// Package faultnet is a deterministic fault-injection harness for the
// remote model protocol of Figures 6-7.
//
// The paper's cross-site claim — "a library characterized and put on
// the web in Massachusetts can be used for estimates in California" —
// is only as strong as the consumer's behavior when the network
// between the two sites misbehaves.  This package provides the
// misbehaving network: a Proxy wraps a real upstream handler (usually
// a live PowerPlay site) behind an httptest server and applies one
// scripted Fault per incoming request, popped from a fixed schedule.
//
// Faults cover the failure modes the resilience layer must survive:
//
//   - added latency before any response;
//   - 5xx bursts (a crashing or overloaded publisher);
//   - connection resets (RST mid-handshake or mid-response);
//   - truncated JSON (the body cut off below its declared length);
//   - garbage JSON (a captive portal, a proxy error page);
//   - slow-drip bodies (a byte at a time, the classic stalled peer).
//
// Schedules are plain slices, so tests read as tables.  Once the
// schedule is exhausted the proxy applies its default fault (Pass
// unless changed with SetDefault), so "remote dies after N good
// requests" is SetDefault(Fault{Mode: Reset}) with an N-Pass schedule.
//
// The proxy never sleeps past a canceled request context and counts
// every request it serves, which lets tests assert both retry fan-out
// and the *absence* of traffic once a circuit breaker opens or a sweep
// is canceled.
package faultnet

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// Mode selects a fault behavior.
type Mode int

// Fault modes.
const (
	// Pass proxies the request to the upstream untouched.
	Pass Mode = iota
	// Status short-circuits with an HTTP error status (Fault.Code).
	Status
	// Reset closes the client connection with no response (RST).
	Reset
	// Truncate serves the upstream response cut off after Fault.Bytes
	// bytes, below its declared Content-Length, so the client's JSON
	// decoder sees an unexpected EOF.
	Truncate
	// Garbage serves 200 OK with a body that is not JSON.
	Garbage
	// SlowDrip serves the upstream response one chunk per Fault.Drip
	// tick, flushing between chunks: a stalled-but-alive peer.
	SlowDrip
)

// String names the mode for logs and test failures.
func (m Mode) String() string {
	switch m {
	case Pass:
		return "pass"
	case Status:
		return "status"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Garbage:
		return "garbage"
	case SlowDrip:
		return "slowdrip"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Fault is one scripted behavior, applied to exactly one request.
type Fault struct {
	// Mode selects the behavior; the zero value is Pass.
	Mode Mode
	// Latency is slept before any other action (any mode), honoring
	// the request context so canceled clients are not held.
	Latency time.Duration
	// Code is the HTTP status for Status mode; zero means 503.
	Code int
	// Bytes is how much of the body Truncate emits; zero means half.
	Bytes int
	// Drip is SlowDrip's per-chunk delay; zero means 5 ms.
	Drip time.Duration
	// Chunk is SlowDrip's chunk size in bytes; zero means 1.
	Chunk int
}

// Proxy is the scripted fault injector in front of an upstream handler.
type Proxy struct {
	upstream http.Handler
	srv      *httptest.Server

	mu       sync.Mutex
	schedule []Fault
	pos      int
	def      Fault
	requests int
}

// New starts a Proxy over upstream with the given schedule.  Callers
// must Close it.
func New(upstream http.Handler, schedule ...Fault) *Proxy {
	p := &Proxy{upstream: upstream, schedule: schedule}
	p.srv = httptest.NewServer(p)
	return p
}

// URL is the proxy's base URL: what a Remote client should dial.
func (p *Proxy) URL() string { return p.srv.URL }

// Close shuts the proxy down, waiting for in-flight requests.
func (p *Proxy) Close() { p.srv.Close() }

// SetDefault sets the fault applied once the schedule is exhausted
// (Pass initially).  SetDefault(Fault{Mode: Reset}) "kills" the remote
// for every future request.
func (p *Proxy) SetDefault(f Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.def = f
}

// Requests returns how many requests the proxy has begun serving.
func (p *Proxy) Requests() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests
}

// next pops the request's fault and counts the request.
func (p *Proxy) next() Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if p.pos < len(p.schedule) {
		f := p.schedule[p.pos]
		p.pos++
		return f
	}
	return p.def
}

// ServeHTTP applies the next scheduled fault to the request.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := p.next()
	if f.Latency > 0 && !sleep(r, f.Latency) {
		return // client gone; nothing to respond to
	}
	switch f.Mode {
	case Status:
		code := f.Code
		if code == 0 {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, "faultnet: injected fault", code)
	case Reset:
		reset(w)
	case Truncate:
		p.truncate(w, r, f)
	case Garbage:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `<<<faultnet: this is not JSON>>>`)
	case SlowDrip:
		p.slowDrip(w, r, f)
	default:
		p.upstream.ServeHTTP(w, r)
	}
}

// sleep waits d honoring the request context; it reports whether the
// client is still there.
func sleep(r *http.Request, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.Context().Done():
		return false
	}
}

// reset hijacks the connection and closes it with linger 0, which
// sends a TCP RST: the client observes a connection-level error with
// no HTTP response at all.
func reset(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	conn.Close()
}

// record runs the upstream into a recorder so a fault can rewrite the
// response body on the way out.
func (p *Proxy) record(r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	p.upstream.ServeHTTP(rec, r)
	return rec
}

// truncate declares the full Content-Length but writes only a prefix;
// the server closes the connection on handler return, so the client's
// decoder hits io.ErrUnexpectedEOF.
func (p *Proxy) truncate(w http.ResponseWriter, r *http.Request, f Fault) {
	rec := p.record(r)
	body := rec.Body.Bytes()
	n := f.Bytes
	if n <= 0 || n > len(body) {
		n = len(body) / 2
	}
	copyHeader(w, rec)
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body[:n])
}

// slowDrip serves the real response a chunk at a time, flushing after
// each, until the body is done or the client gives up.
func (p *Proxy) slowDrip(w http.ResponseWriter, r *http.Request, f Fault) {
	rec := p.record(r)
	body := rec.Body.Bytes()
	drip := f.Drip
	if drip <= 0 {
		drip = 5 * time.Millisecond
	}
	chunk := f.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	copyHeader(w, rec)
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(rec.Code)
	flusher, _ := w.(http.Flusher)
	for off := 0; off < len(body); off += chunk {
		if !sleep(r, drip) {
			return
		}
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		if _, err := w.Write(body[off:end]); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func copyHeader(w http.ResponseWriter, rec *httptest.ResponseRecorder) {
	for k, vs := range rec.Header() {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
}
