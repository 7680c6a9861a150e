package web

import (
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/library"
	"powerplay/internal/units"
)

// newTestServer serves an already-built Server (custom registry or
// config) for the duration of the test.
func newTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// loggedInClient returns a cookie-jarred client authenticated as user.
func loggedInClient(t *testing.T, ts *httptest.Server, user string) *http.Client {
	t.Helper()
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	loginAs(t, ts, c, user, "")
	return c
}

// TestRecoverMiddleware: one panicking model evaluation becomes a 500
// on that request; the site keeps serving.
func TestRecoverMiddleware(t *testing.T) {
	reg := library.Standard()
	reg.MustRegister(&model.Func{
		Meta: model.Info{Name: "test.boom", Title: "boom", Class: model.Computation},
		Fn: func(p model.Params) (*model.Estimate, error) {
			panic("characterization bug")
		},
	})
	s, err := NewServer(Config{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, s)
	resp, err := http.Post(ts.URL+"/api/v1/eval", "application/json",
		strings.NewReader(`{"model":"test.boom"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking eval = %d, want 500", resp.StatusCode)
	}
	// The panic killed one request, not the site.
	resp, err = http.Get(ts.URL + "/api/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("site dead after panic: %d", resp.StatusCode)
	}
}

// TestBodyLimitMiddleware: an oversized request body is rejected at the
// configured cap, and normal-sized requests still work.
func TestBodyLimitMiddleware(t *testing.T) {
	_, ts, _ := site(t, Config{MaxBodyBytes: 256})
	big := `{"model":"` + strings.Repeat("x", 4096) + `"}`
	resp, err := http.Post(ts.URL+"/api/v1/eval", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	small := `{"model":"` + library.SRAM + `","params":{"words":1024,"bits":8,"vdd":1.5,"f":1e6}}`
	resp, err = http.Post(ts.URL+"/api/v1/eval", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("normal eval under the cap = %d, want 200", resp.StatusCode)
	}
}

// TestRequestTimeoutMiddleware: the per-request deadline bounds a sweep
// whose model is slower than the budget — regardless of worker count,
// because a single point already overruns it.
func TestRequestTimeoutMiddleware(t *testing.T) {
	reg := library.Standard()
	reg.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "test.slow", Title: "slow", Class: model.Computation,
			Params: model.WithStd(),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			time.Sleep(100 * time.Millisecond)
			e := &model.Estimate{VDD: p.VDD()}
			e.AddSwing("c", units.Farads(1e-12), p.VDD(), p.Freq())
			return e, nil
		},
	})
	s, err := NewServer(Config{RequestTimeout: 50 * time.Millisecond}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d := sheet.NewDesign("d", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	d.Root.MustAddChild("s", "test.slow")
	if err := s.InstallDesign("u", d); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, s)
	c := loggedInClient(t, ts, "u")
	code, body := fetch(t, c, ts.URL+"/design/d/sweep?var=vdd&from=1.0&to=3.0&steps=8")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget sweep = %d, want 503", code)
	}
	if !strings.Contains(body, "timed out") {
		t.Errorf("timeout not surfaced:\n%s", grep(body, "timed"))
	}
}

// TestMiddlewareConfigResolvers: zero picks defaults, negative disables.
func TestMiddlewareConfigResolvers(t *testing.T) {
	mk := func(cfg Config) *Server {
		s, err := NewServer(cfg, library.Standard())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := mk(Config{}).requestTimeout(); got != defaultRequestTimeout {
		t.Errorf("default requestTimeout = %v", got)
	}
	if got := mk(Config{RequestTimeout: -1}).requestTimeout(); got != 0 {
		t.Errorf("disabled requestTimeout = %v", got)
	}
	// The request deadline never undercuts a configured sweep budget.
	long := mk(Config{SweepTimeout: 10 * time.Minute})
	if got := long.requestTimeout(); got != 10*time.Minute+30*time.Second {
		t.Errorf("requestTimeout under long sweep budget = %v", got)
	}
	if got := mk(Config{}).maxBodyBytes(); got != defaultMaxBodyBytes {
		t.Errorf("default maxBodyBytes = %v", got)
	}
	if got := mk(Config{MaxBodyBytes: -1}).maxBodyBytes(); got != 0 {
		t.Errorf("disabled maxBodyBytes = %v", got)
	}
}
