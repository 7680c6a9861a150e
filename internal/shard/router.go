package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerplay/internal/circuit"
	"powerplay/internal/obs"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the backend base URLs (scheme://host:port, or a bare
	// host:port, no path) in shard order: Backends[i] serves shard i.
	// Required, at least one.
	Backends []string
	// ShardCount is the hash width — how many shards the user corpus
	// is partitioned into.  Zero selects len(Backends), the steady
	// state.  During a fleet resize it may lag behind the backend list
	// (the list already holds the new backend, the hash still spreads
	// over the old count); misdirected requests then self-heal through
	// ShardRedirect answers.  Never larger than len(Backends): a shard
	// with no backend would be unroutable.
	ShardCount int
	// Key is the site password, forwarded on internal replication
	// calls (X-PowerPlay-Key).  Client requests pass their own
	// credentials through untouched.
	Key string
	// BreakerCooldown is how long each backend's circuit breaker stays
	// open before probing; zero selects the circuit default (10 s).
	// The breaker trips at the circuit default of 5 consecutive
	// failures.
	BreakerCooldown time.Duration
}

// maxIdlePerBackend caps the keep-alive connection pool per backend.
const maxIdlePerBackend = 32

// replicationTimeout bounds one site-write fan-out.  The fan-out runs
// detached from the client's context, so a client that hangs up
// mid-publish cannot leave some backends without the write; this
// deadline is what still stops it when a backend hangs.
const replicationTimeout = 30 * time.Second

// Router is the shard front door: one process that owns no user state
// at all, just the hash, the backend list, and a breaker per backend.
//
// Request routing:
//
//   - POST /login routes by the form's user field (the shard key is
//     the user name; the login form is where it first appears);
//   - anything carrying the powerplay_user cookie routes to that
//     user's owner backend;
//   - /api/v1/healthz and /metrics answer locally (the router's own
//     health and instruments — backend health is per-backend);
//   - everything else (the front page, the library, the site-scope
//     model API) spreads round-robin over breaker-closed backends.
//     That is safe for site state: a model publish through the form or
//     the JSON API, and a remote mount or repository subscription
//     created or deleted through /api/v1/mounts, is replicated to every
//     backend.
//
// A backend answering 421 ShardRedirect triggers one re-route to the
// owner it names — how a router with a stale ShardCount keeps serving
// through a resize.  A backend whose breaker is open costs its users a
// fast 503 with the v1 error envelope; everyone else is untouched.
type Router struct {
	cfg       Config
	backends  []*url.URL // scheme://host, no path
	ring      *Ring
	breakers  []*circuit.Breaker
	transport *http.Transport
	proxy     *httputil.ReverseProxy
	rr        atomic.Uint64
	started   time.Time
}

// NewRouter validates the configuration and builds the router with its
// pooled keep-alive transport and per-backend breakers.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one backend")
	}
	n := cfg.ShardCount
	if n == 0 {
		n = len(cfg.Backends)
	}
	if n < 1 || n > len(cfg.Backends) {
		return nil, fmt.Errorf("shard: shard count %d not in 1..%d (the backend list)", n, len(cfg.Backends))
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(Members(n)),
		started: time.Now(),
	}
	for i, b := range cfg.Backends {
		b = strings.TrimSuffix(b, "/")
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		u, err := url.Parse(b)
		if err != nil || u.Host == "" || u.Path != "" {
			return nil, fmt.Errorf("shard: backend %d: unusable URL %q", i, cfg.Backends[i])
		}
		rt.backends = append(rt.backends, u)
		idx := strconv.Itoa(i)
		rt.breakers = append(rt.breakers, &circuit.Breaker{
			Cooldown: cfg.BreakerCooldown,
			OnTransition: func(to circuit.State) {
				shardBreakerTransitions.With(idx, to.String()).Inc()
			},
		})
	}
	rt.transport = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        maxIdlePerBackend * len(cfg.Backends),
		MaxIdleConnsPerHost: maxIdlePerBackend,
		IdleConnTimeout:     90 * time.Second,
		// Above the backends' own 2 min request deadline, so a slow
		// sweep finishes and only a truly hung backend trips this.
		ResponseHeaderTimeout: 150 * time.Second,
	}
	rt.proxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			rt.retarget(pr.Out, routeOf(pr.In).target)
			pr.Out.Header["X-Forwarded-For"] = pr.In.Header["X-Forwarded-For"]
			pr.SetXForwarded()
		},
		Transport:      roundTripFunc(rt.forward),
		ModifyResponse: rt.onResponse,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			rt.fail(w, r, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
		},
		BufferPool: copyBuffers,
	}
	return rt, nil
}

// ShardCount returns the hash width in force.
func (rt *Router) ShardCount() int { return rt.ring.Len() }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", rt.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("/", rt.route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Adopt (or mint) the request ID by the backends' rule and
		// forward it, so one ID follows the request through router log
		// lines, backend log lines, and the client's error envelope.
		id := obs.RequestIDFrom(r.Header.Get("X-Request-ID"))
		r.Header.Set("X-Request-ID", id)
		w.Header().Set("X-Request-ID", id)
		mux.ServeHTTP(w, r)
	})
}

// routing is one request's routing decision, carried on its context
// from route to the transport and the replication hook.  The body is
// held whole so a re-send (failover, ShardRedirect) and a replication
// can replay it.
type routing struct {
	target int  // the backend that answered, once forward returns
	rr     bool // round-robin (site-scope) traffic, which may fail over
	body   []byte
}

type routingKey struct{}

func routeOf(r *http.Request) *routing { return r.Context().Value(routingKey{}).(*routing) }

// route is the proxying path: read the body, extract the shard key,
// pick the backend, forward.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != http.NoBody {
		var err error
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
			// The backends' answer to a body they cannot read, over-cap
			// ones included, given without sending them any of it.
			rt.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad request: "+err.Error())
			return
		}
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	}
	st := &routing{body: body}
	if user := rt.requestUser(r, body); user != "" {
		st.target = rt.ring.Pick(user)
	} else {
		// Site-scope / anonymous traffic: any healthy backend will do.
		target, ok := rt.nextHealthy()
		if !ok {
			shardRejected.Inc()
			rt.fail(w, r, http.StatusServiceUnavailable, CodeUnavailable, "no backend available")
			return
		}
		st.target, st.rr = target, true
	}
	rt.proxy.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), routingKey{}, st)))
}

// requestUser extracts the shard key: the login form's user field on
// POST /login, the routing cookie everywhere else.
func (rt *Router) requestUser(r *http.Request, body []byte) string {
	if r.Method == http.MethodPost && r.URL.Path == "/login" {
		ct := r.Header.Get("Content-Type")
		if body != nil && (ct == "" || strings.HasPrefix(ct, "application/x-www-form-urlencoded")) {
			if vals, err := url.ParseQuery(string(body)); err == nil {
				if u := vals.Get("user"); u != "" {
					return u
				}
			}
		}
		return ""
	}
	if c, err := r.Cookie(UserCookie); err == nil && c.Value != "" {
		return c.Value
	}
	return ""
}

// nextHealthy picks the next round-robin backend whose breaker admits
// traffic, scanning at most one full cycle.
func (rt *Router) nextHealthy() (int, bool) {
	n := len(rt.backends)
	start := int(rt.rr.Add(1))
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if rt.breakers[i].State() != circuit.Open {
			return i, true
		}
	}
	return 0, false
}

// retarget points an outbound request at backends[i].
func (rt *Router) retarget(out *http.Request, i int) {
	out.URL.Scheme, out.URL.Host, out.Host = rt.backends[i].Scheme, rt.backends[i].Host, ""
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// forward is the proxy's transport: it sends the outbound request to
// its routed backend, following at most one ShardRedirect.
// Round-robin (site-scope) traffic may fail over once to another
// backend; user traffic must not — the user's state lives on exactly
// one backend.
func (rt *Router) forward(out *http.Request) (*http.Response, error) {
	st := routeOf(out)
	resp, err := rt.send(out, st.target)
	if err != nil && st.rr {
		// Site-scope reads are stateless: one failover attempt.
		if next, ok := rt.nextHealthy(); ok && next != st.target {
			st.target = next
			resp, err = rt.send(rt.resend(out, st), st.target)
		}
	}
	// A misdirected request: the backend told us who owns the user.
	// Trust it for one hop — the backend's count is ground truth for
	// its own journal partition — and re-route.
	if err == nil && resp.StatusCode == StatusMisdirected {
		owner, oerr := strconv.Atoi(resp.Header.Get(HeaderOwner))
		if oerr == nil && owner != st.target && owner >= 0 && owner < len(rt.backends) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			shardRedirects.Inc()
			if cnt := resp.Header.Get(HeaderCount); cnt != "" && cnt != strconv.Itoa(rt.ring.Len()) {
				slog.Warn("shard: backend disagrees on shard count; following its redirect",
					"router_count", rt.ring.Len(), "backend_count", cnt, "owner", owner)
			}
			st.target = owner
			resp, err = rt.send(rt.resend(out, st), st.target)
		}
	}
	if err != nil {
		shardRejected.Inc()
		proxiedRequests.With(strconv.Itoa(st.target), "error").Inc()
		return nil, fmt.Errorf("shard %d unavailable: %w", st.target, err)
	}
	proxiedRequests.With(strconv.Itoa(st.target), statusClass(resp.StatusCode)).Inc()
	return resp, nil
}

// resend clones an outbound request for another attempt at st.target,
// over a fresh reader of the buffered body.
func (rt *Router) resend(out *http.Request, st *routing) *http.Request {
	again := out.Clone(out.Context())
	rt.retarget(again, st.target)
	if again.Body != nil {
		again.Body = io.NopCloser(bytes.NewReader(st.body))
	}
	return again
}

// send issues one request through backends[target]'s breaker.
func (rt *Router) send(out *http.Request, target int) (*http.Response, error) {
	br := rt.breakers[target]
	if err := br.Allow(); err != nil {
		return nil, err
	}
	resp, err := rt.transport.RoundTrip(out)
	if err != nil {
		if out.Context().Err() != nil {
			// The client hung up or timed out first: no verdict on
			// the backend.
			br.Release()
		} else {
			br.Failure()
		}
		return nil, err
	}
	// Any HTTP answer means the process is alive: application-level
	// errors (404s, even 500s from one handler) are not fleet-topology
	// signals and must not blackhole a whole shard.
	br.Success()
	return resp, nil
}

// copyBuffers pools the proxy's 32 KiB response copy buffers.
var copyBuffers = &bufferPool{sync.Pool{New: func() any { return new([32 << 10]byte) }}}

type bufferPool struct{ sync.Pool }

func (p *bufferPool) Get() []byte  { return p.Pool.Get().(*[32 << 10]byte)[:] }
func (p *bufferPool) Put(b []byte) { p.Pool.Put((*[32 << 10]byte)(b)) }

// onResponse is the proxy's response hook.  It drops the backend's
// X-Request-ID, since the router's own header carries the same ID, and
// replicates site state: a successful model publish on one backend —
// the HTML form's 303 or the JSON API's 201 — and a successful mount
// or unmount fan out to every other backend, so site-scope reads (the
// library, the model listing, the registry, the mount table) stay
// local to whichever backend answers them.  Synchronous and before the
// client sees the answer, so a follow-up read through any backend
// already shows the change.
func (rt *Router) onResponse(resp *http.Response) error {
	resp.Header.Del("X-Request-ID")
	r, st := resp.Request, routeOf(resp.Request)
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && path == "/models/new" && resp.StatusCode == http.StatusSeeOther && st.body != nil:
		rt.replicate(r, http.MethodPost, "/api/v1/shard/model", st.body, r.Header.Get("Content-Type"), st.target)
	case r.Method == http.MethodPost && path == "/api/v1/models" && resp.StatusCode == http.StatusCreated && st.body != nil:
		rt.replicate(r, http.MethodPost, "/api/v1/shard/model", st.body, "application/json", st.target)
	case r.Method == http.MethodPost && path == "/api/v1/mounts" && resp.StatusCode == http.StatusCreated:
		rt.replicate(r, http.MethodPost, path, st.body, "application/json", st.target)
	case r.Method == http.MethodDelete && strings.HasPrefix(path, "/api/v1/mounts/") && resp.StatusCode == http.StatusOK:
		rt.replicate(r, http.MethodDelete, r.URL.RequestURI(), nil, "", st.target)
	}
	return nil
}

// replicate fans a successful site-scope write out to every
// breaker-closed backend except src: the same request (method, path
// and body — a form or JSON body, as contentType says) under the
// router's site key.  Model publishes go through each backend's
// internal POST /api/v1/shard/model endpoint; mounts replay the public
// mounts API.  The fan-out outlives a client that hangs up, under its
// own deadline.  Best-effort: a backend that is down misses the write
// until an operator re-replicates (its breaker state says so); the
// backend that took the request holds the authoritative copy.
func (rt *Router) replicate(r *http.Request, method, path string, body []byte, contentType string, src int) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), replicationTimeout)
	defer cancel()
	for i, b := range rt.backends {
		if i == src || rt.breakers[i].State() == circuit.Open {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, method, b.String()+path, bytes.NewReader(body))
		if err != nil {
			shardReplications.With("error").Inc()
			continue
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if rt.cfg.Key != "" {
			req.Header.Set("X-PowerPlay-Key", rt.cfg.Key)
		}
		req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		resp, err := rt.transport.RoundTrip(req)
		if err != nil {
			shardReplications.With("error").Inc()
			slog.Warn("shard: replication failed", "backend", i, "path", path, "err", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			shardReplications.With("ok").Inc()
		} else {
			shardReplications.With("error").Inc()
			slog.Warn("shard: replication rejected", "backend", i, "path", path, "status", resp.StatusCode)
		}
	}
}

// ----- healthz -----

// healthBackend is one backend's row in the router healthz.
type healthBackend struct {
	URL     string `json:"url"`
	ShardID int    `json:"shard_id"`
	Breaker string `json:"breaker"`
}

// healthzResponse is the router's GET /api/v1/healthz body: the shard
// identity block (role, shard_count) plus every backend's breaker
// state — the one-glance fleet view.
type healthzResponse struct {
	Status        string          `json:"status"`
	Role          string          `json:"role"`
	ShardCount    int             `json:"shard_count"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Backends      []healthBackend `json:"backends"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		Role:          RoleRouter,
		ShardCount:    rt.ring.Len(),
		UptimeSeconds: time.Since(rt.started).Seconds(),
	}
	for i, b := range rt.backends {
		resp.Backends = append(resp.Backends, healthBackend{
			URL: b.String(), ShardID: i, Breaker: rt.breakers[i].State().String(),
		})
	}
	w.Header().Set(HeaderShard, RoleRouter)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// fail writes the v1 error envelope, matching the backends' shape so a
// client never needs to know which process refused it.
func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	w.Header().Set(HeaderShard, RoleRouter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": map[string]string{
		"code": code, "message": msg, "request_id": w.Header().Get("X-Request-ID"),
	}})
}

// statusClass buckets upstream statuses for the proxied-requests
// counter: bounded cardinality, still diagnostic.
func statusClass(status int) string {
	switch status / 100 {
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	}
	return "other"
}
