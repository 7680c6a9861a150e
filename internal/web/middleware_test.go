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

// TestBodyLimitMiddleware: the shipped handler rejects a body over
// the 4 MiB cap and still serves a normal-sized one, and the cap
// middleware applies whatever limit it is given.
func TestBodyLimitMiddleware(t *testing.T) {
	s, err := NewServer(Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	eval := func(h http.Handler, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/eval", strings.NewReader(body)))
		return rec.Code
	}
	h := s.Handler()
	huge := `{"model":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	if code := eval(h, huge); code != http.StatusBadRequest {
		t.Fatalf("body over the 4 MiB cap = %d, want 400", code)
	}
	small := `{"model":"` + library.SRAM + `","params":{"words":1024,"bits":8,"vdd":1.5,"f":1e6}}`
	if code := eval(h, small); code != http.StatusOK {
		t.Errorf("normal eval under the cap = %d, want 200", code)
	}
	big := `{"model":"` + strings.Repeat("x", 4096) + `"}`
	if code := eval(limitBodyMiddleware(h, 256), big); code != http.StatusBadRequest {
		t.Errorf("4 KiB body under a 256 B cap = %d, want 400", code)
	}
	if code := eval(limitBodyMiddleware(h, 256), small); code != http.StatusOK {
		t.Errorf("normal eval under a 256 B cap = %d, want 200", code)
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
	s, err := NewServer(Config{}, reg)
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
	ts := httptest.NewServer(timeoutMiddleware(s.Handler(), 50*time.Millisecond))
	t.Cleanup(ts.Close)
	c := loggedInClient(t, ts, "u")
	code, body := fetch(t, c, ts.URL+"/design/d/sweep?var=vdd&from=1.0&to=3.0&steps=8")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget sweep = %d, want 503", code)
	}
	if !strings.Contains(body, "timed out") {
		t.Errorf("timeout not surfaced:\n%s", grep(body, "timed"))
	}
}

// TestMiddlewareConfigResolvers: the request deadline defaults to
// 2 min and never undercuts a configured sweep budget.
func TestMiddlewareConfigResolvers(t *testing.T) {
	mk := func(cfg Config) *Server {
		s, err := NewServer(cfg, library.Standard())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := mk(Config{}).requestTimeout(); got != minRequestTimeout {
		t.Errorf("default requestTimeout = %v", got)
	}
	long := mk(Config{SweepTimeout: 10 * time.Minute})
	if got := long.requestTimeout(); got != 10*time.Minute+30*time.Second {
		t.Errorf("requestTimeout under long sweep budget = %v", got)
	}
}
