package web

import (
	"context"
	"errors"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"powerplay/internal/circuit"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/faultnet"
	"powerplay/internal/library"
)

// These tests drive the resilient remote protocol through the faultnet
// harness: a real eastern PowerPlay site behind a scripted misbehaving
// network, consumed by a western Remote client.

// fastRetry is the default policy with millisecond pacing, so failure
// scenarios run at test speed.
func fastRetry() *RetryPolicy {
	return &RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

// faultedSite starts an eastern site and a fault proxy in front of it.
func faultedSite(t *testing.T, schedule ...faultnet.Fault) *faultnet.Proxy {
	t.Helper()
	s, err := NewServer(Config{SiteName: "east"}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	p := faultnet.New(s.Handler(), schedule...)
	t.Cleanup(p.Close)
	return p
}

// sramParams is a valid evaluation point for library.SRAM.
func sramParams() map[string]float64 {
	return map[string]float64{"words": 1024, "bits": 8, "vdd": 1.5, "f": 1e6}
}

// TestRemoteGetRetriesTransientFailures: an idempotent lookup survives a
// 5xx, a connection reset, and a garbage body back to back — one retry
// per failure mode, then success.
func TestRemoteGetRetriesTransientFailures(t *testing.T) {
	p := faultedSite(t,
		faultnet.Fault{Mode: faultnet.Status, Code: 500},
		faultnet.Fault{Mode: faultnet.Reset},
		faultnet.Fault{Mode: faultnet.Garbage},
	) // then the schedule is exhausted: Pass
	rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
	models, err := rc.Models(context.Background())
	if err != nil {
		t.Fatalf("Models should survive 3 transient failures: %v", err)
	}
	if len(models) < 20 {
		t.Errorf("got %d models", len(models))
	}
	if got := p.Requests(); got != 4 {
		t.Errorf("requests = %d, want 4 (3 failures + 1 success)", got)
	}
}

// TestRemoteGetExhaustsBudget: a site that never answers sanely costs
// exactly MaxAttempts requests and returns the typed unavailable error.
func TestRemoteGetExhaustsBudget(t *testing.T) {
	p := faultedSite(t)
	p.SetDefault(faultnet.Fault{Mode: faultnet.Status, Code: 503})
	rc := &Remote{BaseURL: p.URL(), Retry: &RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	}}
	_, err := rc.Models(context.Background())
	if !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("want ErrRemoteUnavailable, got %v", err)
	}
	if got := p.Requests(); got != 3 {
		t.Errorf("requests = %d, want MaxAttempts=3", got)
	}
}

// TestRemoteEvalRetryClassification: an Eval POST is never re-sent
// after a 5xx (the server may have done the work), is re-sent after a
// connection-level reset (it demonstrably never arrived), and an
// application-level rejection is neither retried nor "unavailable".
func TestRemoteEvalRetryClassification(t *testing.T) {
	t.Run("5xx not retried", func(t *testing.T) {
		p := faultedSite(t)
		p.SetDefault(faultnet.Fault{Mode: faultnet.Status, Code: 500})
		rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
		_, err := rc.Eval(context.Background(), library.SRAM, sramParams())
		if !errors.Is(err, ErrRemoteUnavailable) {
			t.Fatalf("want ErrRemoteUnavailable, got %v", err)
		}
		if got := p.Requests(); got != 1 {
			t.Errorf("requests = %d: a 5xx Eval must not be re-sent", got)
		}
	})
	t.Run("reset retried", func(t *testing.T) {
		p := faultedSite(t, faultnet.Fault{Mode: faultnet.Reset})
		rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
		est, err := rc.Eval(context.Background(), library.SRAM, sramParams())
		if err != nil {
			t.Fatalf("Eval should survive one reset: %v", err)
		}
		if len(est.Dynamic) == 0 {
			t.Error("estimate came back empty")
		}
		if got := p.Requests(); got != 2 {
			t.Errorf("requests = %d, want 2 (reset + retry)", got)
		}
	})
	t.Run("app error final", func(t *testing.T) {
		p := faultedSite(t)
		rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
		_, err := rc.Eval(context.Background(), "ghost", nil)
		if err == nil || errors.Is(err, ErrRemoteUnavailable) {
			t.Fatalf("unknown model is an app error, not unavailability: %v", err)
		}
		if got := p.Requests(); got != 1 {
			t.Errorf("requests = %d: app errors must not be retried", got)
		}
		if got := rc.BreakerState(); got != circuit.Closed {
			t.Errorf("breaker = %v: an answering site is healthy", got)
		}
	})
}

// TestBreakerLifecycle walks the full circuit: consecutive failures
// trip it open, open means fail-fast with zero network traffic, the
// cooldown admits a single probe whose failure re-opens and whose
// success closes.
func TestBreakerLifecycle(t *testing.T) {
	p := faultedSite(t)
	p.SetDefault(faultnet.Fault{Mode: faultnet.Reset})
	const cooldown = 50 * time.Millisecond
	rc := &Remote{
		BaseURL: p.URL(),
		Retry:   &RetryPolicy{MaxAttempts: 1, MaxEvalAttempts: 1, BaseDelay: time.Millisecond},
		Breaker: &circuit.Breaker{Threshold: 3, Cooldown: cooldown},
	}
	ctx := context.Background()

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := rc.Models(ctx); !errors.Is(err, ErrRemoteUnavailable) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if got := rc.BreakerState(); got != circuit.Open {
		t.Fatalf("after 3 failures breaker = %v, want open", got)
	}
	if got := p.Requests(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}

	// Open: fail fast, typed, and no packet leaves the building.
	_, err := rc.Models(ctx)
	if !errors.Is(err, circuit.ErrOpen) || !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("open breaker error not typed: %v", err)
	}
	if got := p.Requests(); got != 3 {
		t.Errorf("requests = %d: open breaker must not touch the network", got)
	}

	// After the cooldown one probe goes out; the site is still dead, so
	// the breaker snaps back open.
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := rc.Models(ctx); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("probe against dead site: %v", err)
	}
	if got := p.Requests(); got != 4 {
		t.Errorf("requests = %d: half-open admits exactly one probe", got)
	}
	if got := rc.BreakerState(); got != circuit.Open {
		t.Errorf("failed probe should re-open, got %v", got)
	}
	if _, err := rc.Models(ctx); !errors.Is(err, circuit.ErrOpen) {
		t.Errorf("re-opened breaker should fail fast: %v", err)
	}
	if got := p.Requests(); got != 4 {
		t.Errorf("requests = %d after failed probe + fail-fast", got)
	}

	// The site recovers; the next probe closes the circuit for good.
	p.SetDefault(faultnet.Fault{})
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := rc.Models(ctx); err != nil {
		t.Fatalf("probe against healed site: %v", err)
	}
	if got := rc.BreakerState(); got != circuit.Closed {
		t.Errorf("successful probe should close, got %v", got)
	}
	if _, err := rc.Models(ctx); err != nil {
		t.Errorf("closed breaker should pass traffic: %v", err)
	}
}

// TestMountAtomic: a mount that fails mid-fetch, or mid-register on a
// name collision, leaves the consumer registry exactly as it was —
// never a partially-mounted prefix.
func TestMountAtomic(t *testing.T) {
	t.Run("fetch failure", func(t *testing.T) {
		// Two good responses (the model list, the first schema), then the
		// site dies while the schemas are still being fetched.
		p := faultedSite(t, faultnet.Fault{}, faultnet.Fault{})
		p.SetDefault(faultnet.Fault{Mode: faultnet.Status, Code: 500})
		rc := &Remote{BaseURL: p.URL(), Retry: &RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}}
		reg := library.Standard()
		before := append([]string(nil), reg.Names()...)
		if _, err := MountContext(context.Background(), reg, rc, "east"); !errors.Is(err, ErrRemoteUnavailable) {
			t.Fatalf("mount against dying site: %v", err)
		}
		assertNamesEqual(t, reg, before)
	})
	t.Run("name collision", func(t *testing.T) {
		p := faultedSite(t)
		rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
		reg := library.Standard()
		// Occupy one local name a remote model would take: the registry
		// replaces on Register, so without the up-front collision check
		// the mount would silently clobber this model.
		remote := library.Standard().Names()
		sort.Strings(remote)
		collision := "east." + remote[len(remote)-1]
		local := &model.Func{
			Meta: model.Info{Name: collision, Title: "squatter", Class: model.Computation},
			Fn: func(p model.Params) (*model.Estimate, error) {
				return &model.Estimate{}, nil
			},
		}
		reg.MustRegister(local)
		before := append([]string(nil), reg.Names()...)
		_, err := MountContext(context.Background(), reg, rc, "east")
		if err == nil || !strings.Contains(err.Error(), "clobber") {
			t.Fatalf("mount over an occupied name: %v", err)
		}
		assertNamesEqual(t, reg, before)
		if m, _ := reg.Lookup(collision); m != local {
			t.Error("failed mount replaced the pre-existing local model")
		}
	})
	t.Run("remount is idempotent", func(t *testing.T) {
		p := faultedSite(t)
		rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
		reg := library.Standard()
		n1, err := Mount(reg, rc, "east")
		if err != nil {
			t.Fatal(err)
		}
		// Mounting the same remote under the same prefix again replaces
		// its own proxies — that is not clobbering.
		n2, err := Mount(reg, rc, "east")
		if err != nil {
			t.Fatalf("remount of own proxies: %v", err)
		}
		if n1 != n2 {
			t.Errorf("remount count %d != %d", n2, n1)
		}
	})
}

func assertNamesEqual(t *testing.T, reg *model.Registry, want []string) {
	t.Helper()
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("registry changed: %d names, want %d", len(got), len(want))
	}
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("registry changed: %q vs %q", got[i], w[i])
		}
	}
}

// TestRefreshSyncsMount: Refresh picks up newly published remote
// models, drops unpublished ones (but only this mount's proxies), and a
// refresh against a dead site leaves the working mount untouched.
func TestRefreshSyncsMount(t *testing.T) {
	east, tsEast, cEast := site(t, Config{SiteName: "east"})
	ctx := context.Background()
	westReg := library.Standard()
	rc := &Remote{BaseURL: tsEast.URL, Retry: fastRetry()}
	n0, err := Mount(westReg, rc, "east")
	if err != nil {
		t.Fatal(err)
	}

	// The eastern site publishes a new model; Refresh mounts it.
	loginAs(t, tsEast, cEast, "characterizer", "")
	post(t, cEast, tsEast.URL+"/models/new", url.Values{
		"name": {"dsp.fresh"}, "class": {"computation"}, "csw": {"1p"},
	})
	n1, err := Refresh(ctx, westReg, rc, "east")
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n0+1 {
		t.Errorf("after publish: %d mounted, want %d", n1, n0+1)
	}
	if _, ok := westReg.Lookup("east.dsp.fresh"); !ok {
		t.Error("refresh did not mount the new model")
	}

	// A local model that happens to share the prefix is not Refresh's to
	// drop when the site unpublishes.
	westReg.MustRegister(&model.Func{
		Meta: model.Info{Name: "east.local.notaproxy", Title: "local", Class: model.Computation},
		Fn: func(p model.Params) (*model.Estimate, error) {
			return &model.Estimate{}, nil
		},
	})
	east.Registry().Unregister("dsp.fresh")
	if _, err := Refresh(ctx, westReg, rc, "east"); err != nil {
		t.Fatal(err)
	}
	if _, ok := westReg.Lookup("east.dsp.fresh"); ok {
		t.Error("refresh did not unmount the unpublished model")
	}
	if _, ok := westReg.Lookup("east.local.notaproxy"); !ok {
		t.Error("refresh dropped a local model that merely shares the prefix")
	}

	// Refresh through a dead network: error out, change nothing.
	before := append([]string(nil), westReg.Names()...)
	p := faultedSite(t)
	p.SetDefault(faultnet.Fault{Mode: faultnet.Reset})
	dead := &Remote{BaseURL: p.URL(), Retry: &RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}}
	if _, err := Refresh(ctx, westReg, dead, "east"); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("refresh against dead site: %v", err)
	}
	assertNamesEqual(t, westReg, before)
}

// TestSheetDegradesToStaleWhenRemoteDies is the acceptance scenario:
// a sheet built on mounted proxy models keeps evaluating after the
// publishing site dies mid-session.  Previously-evaluated cells serve
// visibly stale estimates with identical totals; never-evaluated points
// return the typed ErrRemoteUnavailable; once the breaker opens, the
// degraded sheet costs zero network traffic; and the rendered page
// marks the stale rows.
func TestSheetDegradesToStaleWhenRemoteDies(t *testing.T) {
	p := faultedSite(t)
	westReg := library.Standard()
	rc := &Remote{
		BaseURL: p.URL(),
		Retry:   fastRetry(),
		Breaker: &circuit.Breaker{Threshold: 2, Cooldown: time.Hour},
	}
	if _, err := Mount(westReg, rc, "east"); err != nil {
		t.Fatal(err)
	}

	d := sheet.NewDesign("d", westReg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	mem := d.Root.MustAddChild("mem", "east."+library.SRAM)
	if err := mem.SetParam("words", "1024"); err != nil {
		t.Fatal(err)
	}
	if err := mem.SetParam("bits", "8"); err != nil {
		t.Fatal(err)
	}

	// Healthy: the evaluation round-trips over the network.
	r1, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Power <= 0 {
		t.Fatalf("healthy power = %v", r1.Power)
	}

	// The publisher dies mid-session.
	p.SetDefault(faultnet.Fault{Mode: faultnet.Reset})

	// The previously-evaluated point still evaluates — same total,
	// visibly stale.
	r2, err := d.Evaluate()
	if err != nil {
		t.Fatalf("degraded evaluation should serve stale estimates: %v", err)
	}
	if r2.Power != r1.Power {
		t.Errorf("stale power %v != last good %v", r2.Power, r1.Power)
	}
	memRes := r2.Children[0]
	var stale bool
	for _, note := range memRes.Estimate.Notes {
		if strings.HasPrefix(note, staleNotePrefix) {
			stale = true
		}
	}
	if !stale {
		t.Errorf("degraded row carries no stale note: %v", memRes.Estimate.Notes)
	}

	// A never-evaluated point cannot be served from cache: it fails with
	// the typed error, visible through sheet evaluation's wrapping.
	_, err = d.EvaluateAt(map[string]float64{"vdd": 2.0})
	if err == nil {
		t.Fatal("never-evaluated point should fail when the remote is dead")
	}
	if !errors.Is(err, ErrRemoteUnavailable) {
		t.Errorf("error not typed through sheet evaluation: %v", err)
	}

	// By now the consecutive failures have opened the breaker: the
	// degraded sheet keeps evaluating without touching the network.
	if got := rc.BreakerState(); got != circuit.Open {
		t.Fatalf("breaker = %v, want open", got)
	}
	quiet := p.Requests()
	if _, err := d.Evaluate(); err != nil {
		t.Fatalf("evaluation under open breaker: %v", err)
	}
	if got := p.Requests(); got != quiet {
		t.Errorf("open breaker leaked %d requests", got-quiet)
	}

	// The rendered sheet page marks the stale cell.
	west, err := NewServer(Config{SiteName: "west"}, westReg)
	if err != nil {
		t.Fatal(err)
	}
	if err := west.InstallDesign("u", d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(west.Handler())
	defer ts.Close()
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	loginAs(t, ts, c, "u", "")
	code, body := fetch(t, c, ts.URL+"/design/d")
	if code != 200 {
		t.Fatalf("degraded sheet page: %d", code)
	}
	if !strings.Contains(body, "(stale)") || !strings.Contains(body, staleNotePrefix) {
		t.Errorf("page does not mark the stale row:\n%s", grep(body, "stale"))
	}
}

// TestSweepClientDisconnectCancelsWorkers: a client that abandons a
// sweep mid-flight must cancel the exploration — the workers stop
// dispatching points (no further remote evals) and the handler returns,
// which is what lets the server shut down.  The remote's slow-drip mode
// makes each point slow enough that the sweep is provably mid-flight
// when the client goes away.
func TestSweepClientDisconnectCancelsWorkers(t *testing.T) {
	const steps = 200
	if runtime.GOMAXPROCS(0) >= steps/2 {
		t.Skipf("GOMAXPROCS=%d: too many sweep workers to observe cancellation", runtime.GOMAXPROCS(0))
	}
	p := faultedSite(t)
	westReg := library.Standard()
	rc := &Remote{BaseURL: p.URL(), Retry: fastRetry()}
	if _, err := Mount(westReg, rc, "east"); err != nil {
		t.Fatal(err)
	}
	d := sheet.NewDesign("d", westReg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	mem := d.Root.MustAddChild("mem", "east."+library.SRAM)
	if err := mem.SetParam("words", "1024"); err != nil {
		t.Fatal(err)
	}

	west, err := NewServer(Config{SiteName: "west"}, westReg)
	if err != nil {
		t.Fatal(err)
	}
	if err := west.InstallDesign("u", d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(west.Handler())
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	loginAs(t, ts, c, "u", "")

	// From here on every remote eval drips its body slowly: each sweep
	// point takes on the order of 100 ms, so a full 200-point sweep
	// would run for tens of seconds.
	base := p.Requests()
	p.SetDefault(faultnet.Fault{Mode: faultnet.SlowDrip, Drip: 4 * time.Millisecond, Chunk: 8})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/design/d/sweep?var=vdd&from=1.0&to=3.0&steps=200", nil)
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(80*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := c.Do(req); err == nil {
		t.Fatal("the sweep finished before the client disconnected; slow-drip not slow enough")
	}

	// The handler must come home: ts.Close blocks until every in-flight
	// handler (and therefore every sweep worker the handler waits on)
	// has returned.
	closed := make(chan struct{})
	go func() { ts.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("server close timed out: sweep workers not released after client disconnect")
	}

	swept := p.Requests() - base
	if swept < 1 {
		t.Fatal("sweep never reached the remote; the test proved nothing")
	}
	if swept >= steps {
		t.Errorf("sweep dispatched %d/%d points after client disconnect", swept, steps)
	}
	// And the traffic has actually stopped, not merely paused.
	settled := p.Requests()
	time.Sleep(100 * time.Millisecond)
	if got := p.Requests(); got != settled {
		t.Errorf("requests still arriving after handler returned: %d -> %d", settled, got)
	}
}
