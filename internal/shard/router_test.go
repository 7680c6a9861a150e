package shard_test

// End-to-end fleet tests: real web.Server backends behind a real
// Router, all over loopback HTTP.  In shard_test (not shard) because
// the backends come from internal/web, which itself imports
// internal/shard.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerplay/internal/library"
	"powerplay/internal/shard"
	"powerplay/internal/web"
)

// userFor finds a deterministic user name the n-shard hash assigns to
// the wanted shard.
func userFor(t *testing.T, want, n int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("user%d", i)
		if shard.NewRing(shard.Members(n)).Pick(name) == want {
			return name
		}
	}
	t.Fatalf("no user maps to shard %d of %d in 10000 tries", want, n)
	return ""
}

// breakerState reads backend i's breaker state from the router's
// healthz, which answers locally and so moves no breaker.
func breakerState(t *testing.T, front string, i int) string {
	t.Helper()
	resp, err := http.Get(front + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Backends []struct {
			Breaker string `json:"breaker"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Backends[i].Breaker
}

// fleet is one router over n in-process backends.
type fleet struct {
	router   *shard.Router
	front    *httptest.Server
	backends []*httptest.Server
	servers  []*web.Server
}

// newFleet builds an n-backend fleet.  mutate, when non-nil, adjusts
// the router config (e.g. a stale shard count) before the router is
// built.
func newFleet(t *testing.T, n int, mutate func(*shard.Config)) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		s, err := web.NewServer(web.Config{ShardID: i, ShardCount: n}, library.Standard())
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, ts)
	}
	cfg := shard.Config{}
	for _, b := range f.backends {
		cfg.Backends = append(cfg.Backends, b.URL)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := shard.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

func newClient(t *testing.T) *http.Client {
	t.Helper()
	jar, _ := cookiejar.New(nil)
	return &http.Client{Jar: jar}
}

// login identifies user through the fleet's front door.
func login(t *testing.T, c *http.Client, base, user string) {
	t.Helper()
	resp, err := c.PostForm(base+"/login", url.Values{"user": {user}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login %s: %s", user, resp.Status)
	}
}

// get fetches url and returns status, body, and the shard header.
func get(t *testing.T, c *http.Client, url string) (int, string, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header.Get(shard.HeaderShard)
}

func TestRouterRoutesByUser(t *testing.T) {
	f := newFleet(t, 2, nil)
	for want := 0; want < 2; want++ {
		user := userFor(t, want, 2)
		c := newClient(t)
		login(t, c, f.front.URL, user)
		code, body, hdr := get(t, c, f.front.URL+"/menu")
		if code != 200 || !strings.Contains(body, user) {
			t.Fatalf("menu for %s: %d", user, code)
		}
		if hdr != fmt.Sprintf("%d", want) {
			t.Errorf("user %s served by shard %q, hash says %d", user, hdr, want)
		}
		// The user's state must live on exactly the owning backend.
		if !f.servers[want].Owns(user) {
			t.Errorf("backend %d does not own %s", want, user)
		}
		if f.servers[1-want].Owns(user) {
			t.Errorf("backend %d claims %s too", 1-want, user)
		}
	}
	// Anonymous site traffic spreads without a user: the front page
	// answers from some backend with its shard header.
	code, _, hdr := get(t, newClient(t), f.front.URL+"/")
	if code != 200 || (hdr != "0" && hdr != "1") {
		t.Errorf("front page: %d shard %q", code, hdr)
	}
}

func TestRouterHealthz(t *testing.T) {
	f := newFleet(t, 3, nil)
	resp, err := http.Get(f.front.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(shard.HeaderShard); got != shard.RoleRouter {
		t.Errorf("router healthz shard header %q, want %q", got, shard.RoleRouter)
	}
	var h struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		ShardCount int    `json:"shard_count"`
		Backends   []struct {
			URL     string `json:"url"`
			ShardID int    `json:"shard_id"`
			Breaker string `json:"breaker"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != shard.RoleRouter || h.ShardCount != 3 || len(h.Backends) != 3 {
		t.Fatalf("router healthz: %+v", h)
	}
	for i, b := range h.Backends {
		if b.ShardID != i || b.Breaker != "closed" || b.URL == "" {
			t.Errorf("backend %d block: %+v", i, b)
		}
	}
	// The backends' own healthz carries the backend identity block.
	var bh struct {
		Shard *struct {
			ShardID    int    `json:"shard_id"`
			ShardCount int    `json:"shard_count"`
			Role       string `json:"role"`
		} `json:"shard"`
	}
	br, err := http.Get(f.backends[2].URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Body.Close()
	if err := json.NewDecoder(br.Body).Decode(&bh); err != nil {
		t.Fatal(err)
	}
	if bh.Shard == nil || bh.Shard.ShardID != 2 || bh.Shard.ShardCount != 3 || bh.Shard.Role != shard.RoleBackend {
		t.Fatalf("backend healthz shard block: %+v", bh.Shard)
	}
}

// TestShardRedirectSelfHeal: a router whose shard count is stale (a
// resize in progress) sends a user to the wrong backend; the backend's
// 421 names the owner and the router re-routes within the same client
// request.
func TestShardRedirectSelfHeal(t *testing.T) {
	// Backends believe the fleet has 2 shards; the router still hashes
	// over 1, sending every user to backend 0.
	f := newFleet(t, 2, func(c *shard.Config) { c.ShardCount = 1 })
	user := userFor(t, 1, 2) // owned by shard 1, misrouted to 0
	c := newClient(t)
	login(t, c, f.front.URL, user)
	code, body, hdr := get(t, c, f.front.URL+"/menu")
	if code != 200 || !strings.Contains(body, user) {
		t.Fatalf("menu through stale router: %d", code)
	}
	if hdr != "1" {
		t.Errorf("self-healed request served by shard %q, want 1", hdr)
	}
	// The client never saw the 421; the backend that owns nothing of
	// this user's never created state for them.
	if f.servers[0].Owns(user) {
		t.Error("backend 0 claims the misrouted user")
	}
}

// TestDirectMisdirect: hitting a backend directly with a user it does
// not own answers the full ShardRedirect protocol (what the router
// consumes, and what a curl user sees).
func TestDirectMisdirect(t *testing.T) {
	f := newFleet(t, 2, nil)
	user := userFor(t, 1, 2)
	// No router in the path: POST the login form straight at backend 0.
	resp, err := http.PostForm(f.backends[0].URL+"/login", url.Values{"user": {user}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != shard.StatusMisdirected {
		t.Fatalf("direct misdirect: %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(shard.HeaderOwner); got != "1" {
		t.Errorf("owner header %q, want 1", got)
	}
	if got := resp.Header.Get(shard.HeaderCount); got != "2" {
		t.Errorf("count header %q, want 2", got)
	}
	if !strings.Contains(string(body), shard.CodeShardRedirect) {
		t.Errorf("421 body lacks the %s envelope: %s", shard.CodeShardRedirect, body)
	}
}

// TestModelReplication: a site model defined through the router lands
// on every backend, so site-scope reads never cross shards.
func TestModelReplication(t *testing.T) {
	f := newFleet(t, 2, nil)
	user := userFor(t, 0, 2)
	c := newClient(t)
	login(t, c, f.front.URL, user)
	resp, err := c.PostForm(f.front.URL+"/models/new", url.Values{
		"name": {"repl.adder"}, "class": {"computation"},
		"params": {"bits 8 1 64 int"},
		"csw":    {"bits*42f"},
		"doc":    {"replicated model"},
	})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK { // client followed the 303 to /doc
		t.Fatalf("model create: %s", resp.Status)
	}
	for i, b := range f.backends {
		code, body, _ := get(t, newClient(t), b.URL+"/api/v1/models/repl.adder")
		if code != 200 || !strings.Contains(body, "repl.adder") {
			t.Errorf("backend %d missing replicated model: %d %s", i, code, body)
		}
	}
}

// TestModelReplicationJSON: a model published through the router's
// JSON API lands on every backend too, so every backend's model listing
// and registry agree and designs on any shard can price through it.
func TestModelReplicationJSON(t *testing.T) {
	f := newFleet(t, 2, nil)
	blob, _ := json.Marshal(library.Equation{
		Name: "repl.json", Title: "JSON-published adder", Class: "computation",
		Params: []library.EquationParam{{Name: "bits", Default: 8, Min: 1, Max: 64, Integer: true}},
		Csw:    "bits*42f",
	})
	// A form Content-Type, as curl -d sends: the JSON API reads the
	// body as JSON whatever the header says, and so must replication.
	resp, err := http.Post(f.front.URL+"/api/v1/models", "application/x-www-form-urlencoded", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish: %s: %s", resp.Status, body)
	}
	digest := resp.Header.Get("X-Powerplay-Digest")
	var first string
	for i, b := range f.backends {
		code, model, _ := get(t, newClient(t), b.URL+"/api/v1/models/repl.json")
		if code != 200 {
			t.Errorf("backend %d missing the JSON-published model: %d %s", i, code, model)
			continue
		}
		if first == "" {
			first = model
		} else if model != first {
			t.Errorf("backend %d describes repl.json differently:\n%s\nwant\n%s", i, model, first)
		}
		if code, reg, _ := get(t, newClient(t), b.URL+"/api/v1/registry"); code != 200 || !strings.Contains(reg, digest) {
			t.Errorf("backend %d registry lacks repl.json@%s: %d %s", i, digest, code, reg)
		}
	}
}

// TestMountReplication: a mount created through the front door — a
// proxy mount and a mirror subscription, both site scope and both
// round-robined to one backend — reaches every backend, and a delete
// through the front door removes it from every backend.
func TestMountReplication(t *testing.T) {
	f := newFleet(t, 2, nil)
	pubSrv, err := web.NewServer(web.Config{SiteName: "pub"}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	pub := httptest.NewServer(pubSrv.Handler())
	t.Cleanup(pub.Close)

	mounted := func(backend string) map[string]string {
		t.Helper()
		code, body, _ := get(t, newClient(t), backend+"/api/v1/mounts")
		if code != 200 {
			t.Fatalf("mounts listing: %d %s", code, body)
		}
		var listing []struct{ Prefix, Mode string }
		if err := json.Unmarshal([]byte(body), &listing); err != nil {
			t.Fatal(err)
		}
		modes := map[string]string{}
		for _, m := range listing {
			modes[m.Prefix] = m.Mode
		}
		return modes
	}
	mounts := map[string]string{"px": "proxy", "mir.": "mirror"}
	for prefix, mode := range mounts {
		body := fmt.Sprintf(`{"url":%q,"prefix":%q,"mode":%q}`, pub.URL, prefix, mode)
		resp, err := http.Post(f.front.URL+"/api/v1/mounts", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("mount %s: %s: %s", prefix, resp.Status, b)
		}
	}
	for i, b := range f.backends {
		if got := mounted(b.URL); len(got) != len(mounts) || got["px"] != "proxy" || got["mir."] != "mirror" {
			t.Errorf("backend %d mounts = %v, want %v", i, got, mounts)
		}
	}
	for prefix := range mounts {
		req, _ := http.NewRequest(http.MethodDelete, f.front.URL+"/api/v1/mounts/"+prefix, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %s: %s", prefix, resp.Status)
		}
	}
	for i, b := range f.backends {
		if got := mounted(b.URL); len(got) != 0 {
			t.Errorf("backend %d still mounts %v after the deletes", i, got)
		}
	}
}

// crashableBackend is a backend the test can kill (listener closed,
// server abandoned un-Closed — a crash, not a shutdown) and restart on
// the same address over the same data directory.
type crashableBackend struct {
	t    *testing.T
	addr string
	dir  string
	id   int
	n    int
	hs   *http.Server
	srv  *web.Server
}

func startCrashable(t *testing.T, addr, dir string, id, n int) *crashableBackend {
	t.Helper()
	b := &crashableBackend{t: t, addr: addr, dir: dir, id: id, n: n}
	s, err := web.NewServer(web.Config{
		ShardID: id, ShardCount: n, DataDir: dir, Durability: "always",
	}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.srv = s
	b.hs = &http.Server{Handler: s.Handler()}
	go b.hs.Serve(ln)
	return b
}

// kill drops the backend as a crash would: the port closes, in-flight
// requests die, and the store is never drained.
func (b *crashableBackend) kill() { b.hs.Close() }

func (b *crashableBackend) url() string { return "http://" + b.addr }

// TestKillBackendMidTraffic is the fleet's fault e2e: one backend dies
// under live traffic, its breaker opens and its users get fast 503s,
// the surviving shard keeps serving, and the restarted backend rejoins
// serving its partition byte-identically (per-user journals, PR 8).
func TestKillBackendMidTraffic(t *testing.T) {
	dir0, dir1 := t.TempDir(), t.TempDir()
	b0 := startCrashable(t, "127.0.0.1:0", dir0, 0, 2)
	defer b0.kill()
	b1 := startCrashable(t, "127.0.0.1:0", dir1, 1, 2)

	rt, err := shard.NewRouter(shard.Config{
		Backends:        []string{b0.url(), b1.url()},
		BreakerCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	u0, u1 := userFor(t, 0, 2), userFor(t, 1, 2)
	c0, c1 := newClient(t), newClient(t)
	login(t, c0, front.URL, u0)
	login(t, c1, front.URL, u1)

	// State on the doomed shard: a design whose page must come back
	// byte-identical after the crash.
	resp, err := c1.PostForm(front.URL+"/designs", url.Values{"name": {"boom"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	code, wantBody, hdr := get(t, c1, front.URL+"/design/boom")
	if code != 200 || hdr != "1" {
		t.Fatalf("design page before crash: %d shard %q", code, hdr)
	}
	wantETag := etagOf(t, c1, front.URL+"/design/boom")

	b1.kill()

	// Live traffic against the dead shard: transport errors until the
	// breaker trips (the circuit default of 5), then fast envelope 503s.
	saw503 := false
	for i := 0; i < 10; i++ {
		resp, err := c1.Get(front.URL + "/menu")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("dead shard answer %d: %s", resp.StatusCode, body)
		}
		if strings.Contains(string(body), shard.CodeUnavailable) {
			saw503 = true
		}
		if breakerState(t, front.URL, 1) == "open" {
			break
		}
	}
	if !saw503 {
		t.Fatal("dead shard never answered the unavailable envelope")
	}
	if got := breakerState(t, front.URL, 1); got != "open" {
		t.Fatalf("backend 1 breaker %q after kill, want open", got)
	}

	// The surviving shard is untouched.
	if code, body, hdr := get(t, c0, front.URL+"/menu"); code != 200 || hdr != "0" || !strings.Contains(body, u0) {
		t.Fatalf("surviving shard: %d shard %q", code, hdr)
	}

	// Restart on the same address over the same journals.  The breaker
	// half-opens after the cooldown, a probe succeeds, and the shard
	// rejoins with its partition byte-identical.
	b1 = startCrashable(t, b1.addr, dir1, 1, 2)
	defer b1.kill()
	c1 = newClient(t) // sessions died with the process; log in again
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c1.PostForm(front.URL+"/login", url.Values{"user": {u1}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard never rejoined: last login %s", resp.Status)
		}
		time.Sleep(100 * time.Millisecond)
	}
	code, gotBody, hdr := get(t, c1, front.URL+"/design/boom")
	if code != 200 || hdr != "1" {
		t.Fatalf("design page after rejoin: %d shard %q", code, hdr)
	}
	if gotETag := etagOf(t, c1, front.URL+"/design/boom"); gotETag != wantETag {
		t.Fatalf("rejoined shard ETag %q, want %q", gotETag, wantETag)
	}
	if gotBody != wantBody {
		t.Fatalf("rejoined shard page differs: %d vs %d bytes", len(gotBody), len(wantBody))
	}
	if got := breakerState(t, front.URL, 1); got != "closed" {
		t.Errorf("backend 1 breaker %q after rejoin, want closed", got)
	}
}

func etagOf(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return resp.Header.Get("ETag")
}

// TestShardMetricsContract drives every shard event — routed requests,
// a redirect, a breaker trip with rejections, a replication — then
// asserts the powerplay_shard_* families are declared and counting.
func TestShardMetricsContract(t *testing.T) {
	// A stale-count router over 2 backends: guarantees redirects.
	f := newFleet(t, 2, func(c *shard.Config) {
		c.ShardCount = 1
		c.BreakerCooldown = time.Minute
	})
	user := userFor(t, 1, 2)
	c := newClient(t)
	login(t, c, f.front.URL, user)
	if code, _, _ := get(t, c, f.front.URL+"/menu"); code != 200 {
		t.Fatalf("menu: %d", code)
	}
	// A replication.
	c.PostForm(f.front.URL+"/models/new", url.Values{
		"name": {"metrics.model"}, "class": {"computation"},
		"params": {"bits 8 1 64 int"}, "csw": {"bits*7f"},
	})
	// A breaker trip and a rejection: kill backend 1's listener, then
	// hit its user six times (five failures trip the default breaker,
	// the sixth fails fast).
	f.backends[1].Close()
	for i := 0; i < 6; i++ {
		resp, err := c.Get(f.front.URL + "/menu")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	text := string(blob)
	for _, fam := range []string{
		"powerplay_shard_lookups_total",
		"powerplay_shard_proxied_requests_total",
		"powerplay_shard_redirects_total",
		"powerplay_shard_breaker_transitions_total",
		"powerplay_shard_replications_total",
		"powerplay_shard_rejected_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" counter") {
			t.Errorf("/metrics missing counter declaration for %s", fam)
		}
	}
	// The events above guarantee live samples for these.  (Counters are
	// process-global, so assert presence, not exact values.)
	for _, sample := range []string{
		"powerplay_shard_redirects_total ",
		`powerplay_shard_proxied_requests_total{backend="1",status="2xx"}`,
		`powerplay_shard_breaker_transitions_total{backend="1",to="open"}`,
		`powerplay_shard_replications_total{outcome="ok"}`,
		"powerplay_shard_rejected_total ",
	} {
		if !strings.Contains(text, sample) {
			t.Errorf("/metrics missing sample %s", sample)
		}
	}
}

// TestRouterRequestID: a routed response carries exactly one
// X-Request-ID, adopted by the backends' rule (a well-formed client ID
// is kept, a malformed one replaced), and every error envelope — the
// backend's and the router's own 503 — names the ID in the header.
func TestRouterRequestID(t *testing.T) {
	f := newFleet(t, 2, nil)
	get := func(path, sent string) (status int, id, envelopeID string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, f.front.URL+path, nil)
		req.Header.Set("X-Request-ID", sent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		ids := resp.Header.Values("X-Request-ID")
		if len(ids) != 1 {
			t.Fatalf("GET %s sent %q: X-Request-ID = %q, want one value", path, sent, ids)
		}
		var env struct {
			Error struct {
				RequestID string `json:"request_id"`
			} `json:"error"`
		}
		if resp.StatusCode >= 400 {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("GET %s: %d without an envelope: %v", path, resp.StatusCode, err)
			}
		}
		return resp.StatusCode, ids[0], env.Error.RequestID
	}
	for _, sent := range []string{"abc-123", "bad id with spaces"} {
		keep := sent == "abc-123"
		if _, id, _ := get("/api/v1/models", sent); (id == sent) != keep {
			t.Errorf("sent %q, routed response carries %q", sent, id)
		}
		status, id, envID := get("/api/v1/models/no.such.model", sent)
		if status != http.StatusNotFound || envID != id || (id == sent) != keep {
			t.Errorf("sent %q: backend error %d names %q, header %q", sent, status, envID, id)
		}
	}
	for _, b := range f.backends {
		b.Close()
	}
	status, id, envID := get("/api/v1/models", "bad id with spaces")
	if status != http.StatusServiceUnavailable || envID != id || id == "bad id with spaces" {
		t.Errorf("router refusal %d names %q, header %q", status, envID, id)
	}
}

// TestRouterStripsHopHeaders: headers a hop names in its Connection
// header belong to that hop alone (RFC 9110 §7.6.1), so neither the
// client's nor the backend's cross the router.
func TestRouterStripsHopHeaders(t *testing.T) {
	seen := make(chan http.Header, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Clone()
		w.Header().Set("Connection", "X-Hop")
		w.Header().Set("X-Hop", "secret")
		io.WriteString(w, "ok")
	}))
	t.Cleanup(backend.Close)
	rt, err := shard.NewRouter(shard.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	req, _ := http.NewRequest(http.MethodGet, front.URL+"/", nil)
	req.Header.Set("Connection", "X-Hop")
	req.Header.Set("X-Hop", "secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed GET: %s", resp.Status)
	}
	in := <-seen
	if in.Get("X-Hop") != "" || strings.Contains(in.Get("Connection"), "X-Hop") {
		t.Errorf("backend received the client's hop headers: X-Hop %q, Connection %q", in.Get("X-Hop"), in.Get("Connection"))
	}
	if resp.Header.Get("X-Hop") != "" || strings.Contains(resp.Header.Get("Connection"), "X-Hop") {
		t.Errorf("client received the backend's hop headers: X-Hop %q, Connection %q",
			resp.Header.Get("X-Hop"), resp.Header.Get("Connection"))
	}
	if in.Get("X-Forwarded-For") == "" || in.Get("X-Forwarded-Proto") != "http" {
		t.Errorf("backend request lacks forwarding headers: %v", in)
	}
}

// TestRouterRefusesOverCapBody: a body over the fleet's cap gets the
// backends' own 400 envelope from the router, which forwards none of
// it — whether the client declares its length or streams it chunked.
func TestRouterRefusesOverCapBody(t *testing.T) {
	s, err := web.NewServer(web.Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	h := s.Handler()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(backend.Close)
	rt, err := shard.NewRouter(shard.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	huge := `{"model":"` + strings.Repeat("x", shard.MaxBodyBytes) + `"}`
	type envelope struct {
		Error struct{ Code, Message string } `json:"error"`
	}
	eval := func(base string, body io.Reader) (int, envelope) {
		t.Helper()
		resp, err := http.Post(base+"/api/v1/eval", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: %d without an envelope: %v", base, resp.StatusCode, err)
		}
		return resp.StatusCode, env
	}
	wantStatus, want := eval(backend.URL, strings.NewReader(huge))
	if wantStatus != http.StatusBadRequest || want.Error.Code != "bad_request" {
		t.Fatalf("backend's own over-cap answer: %d %+v", wantStatus, want)
	}
	for name, body := range map[string]io.Reader{
		"declared length": strings.NewReader(huge),
		"chunked":         io.MultiReader(strings.NewReader(huge)),
	} {
		status, got := eval(front.URL, body)
		if status != wantStatus || got != want {
			t.Errorf("%s: routed over-cap answer %d %+v, want the backend's %d %+v", name, status, got, wantStatus, want)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("backend served %d requests, want 1 (the direct one)", n)
	}
}

// TestReplicationSurvivesClientHangup: a client that hangs up while
// the router replicates its model publish does not cut the fan-out
// short — every backend ends up with the model.
func TestReplicationSurvivesClientHangup(t *testing.T) {
	const n = 3
	arrived, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	var releaseOnce sync.Once
	cfg := shard.Config{}
	for i := 0; i < n; i++ {
		s, err := web.NewServer(web.Config{ShardID: i, ShardCount: n}, library.Standard())
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Hold the first replication until the client has hung up.
			if r.URL.Path == "/api/v1/shard/model" && held.CompareAndSwap(false, true) {
				close(arrived)
				<-release
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	rt, err := shard.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	routed := rt.Handler()
	hungUp, served := make(chan struct{}), make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/models" {
			ctx := r.Context()
			go func() { <-ctx.Done(); close(hungUp) }()
			defer close(served)
		}
		routed.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	// Runs before the servers' cleanups, which wait for the held handler.
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	blob, _ := json.Marshal(library.Equation{
		Name: "hangup.adder", Title: "adder", Class: "computation",
		Params: []library.EquationParam{{Name: "bits", Default: 8, Min: 1, Max: 64, Integer: true}},
		Csw:    "bits*42f",
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/api/v1/models", bytes.NewReader(blob))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	wait(arrived, "the first replication")
	cancel()
	<-done
	wait(hungUp, "the router to see the client hang up")
	releaseOnce.Do(func() { close(release) })
	wait(served, "the routed publish to finish")
	for i, b := range cfg.Backends {
		if code, body, _ := get(t, newClient(t), b+"/api/v1/models/hangup.adder"); code != http.StatusOK {
			t.Errorf("backend %d lacks the model after the client hung up: %d %s", i, code, body)
		}
	}
}

// TestClientHangupKeepsBreakerClosed: clients that give up before a
// slow but healthy backend answers are not evidence against it.  Five
// GETs, each abandoned after 20 ms against a backend that takes 1 s,
// must leave its breaker closed, and the next request must be served.
func TestClientHangupKeepsBreakerClosed(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(time.Second):
			io.WriteString(w, "slow but alive")
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(backend.Close)
	rt, err := shard.NewRouter(shard.Config{Backends: []string{backend.URL}, BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	routed := rt.Handler()
	finished := make(chan struct{}, 16)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routed.ServeHTTP(w, r)
		finished <- struct{}{}
	}))
	t.Cleanup(front.Close)

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/api/v1/models", nil)
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			t.Fatalf("GET %d was answered within its 20 ms deadline; the backend is not slow", i)
		}
		// The router has accounted for the request once its handler
		// returns.
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("the router never finished GET %d after the client hung up", i)
		}
	}
	if got := breakerState(t, front.URL, 0); got != "closed" {
		t.Fatalf("after five client hang-ups the backend's breaker is %v, want closed", got)
	}
	code, body, _ := get(t, http.DefaultClient, front.URL+"/api/v1/models")
	if code != http.StatusOK {
		t.Fatalf("next request: %d %s, want 200 from the healthy backend", code, body)
	}
}
