package web

import (
	"context"
	"fmt"
	"html"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"powerplay/internal/core/explore"
	"powerplay/internal/library"
	"powerplay/internal/units"
)

func TestSweepPage(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"1024"}, "p_bits": {"8"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"mem"},
	})
	// Default sweep (vdd 1.0..3.3 in 8 steps).
	code, body := fetch(t, c, ts.URL+"/design/d/sweep")
	if code != 200 {
		t.Fatalf("sweep: %d", code)
	}
	if strings.Count(body, "<tr>") != 9 { // header + 8 rows
		t.Errorf("row count wrong:\n%s", body)
	}
	// Every voltage point of a CMOS design is Pareto-optimal.
	if got := strings.Count(body, "<td>*</td>"); got != 8 {
		t.Errorf("pareto marks = %d, want 8", got)
	}
	// Explicit frequency sweep with engineering notation bounds.
	code, body = fetch(t, c, ts.URL+"/design/d/sweep?var=f&from=1MHz&to=4MHz&steps=4")
	if code != 200 || strings.Count(body, "<tr>") != 5 {
		t.Fatalf("freq sweep: %d", code)
	}
	// Power must grow down the table (linear in f).
	first := strings.Index(body, "uW")
	last := strings.LastIndex(body, "uW")
	if first == last {
		t.Errorf("expected multiple power cells: %s", grep(body, "uW"))
	}
	// Bad inputs are reported.
	for _, q := range []string{
		"?var=vdd&from=abc&to=3&steps=4",
		"?var=vdd&from=1&to=xyz&steps=4",
		"?var=vdd&from=1&to=3&steps=1",
		"?var=vdd&from=1&to=3&steps=9999",
		"?var=nosuchvar&from=1&to=3&steps=4",
	} {
		resp, err := c.Get(ts.URL + "/design/d/sweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: %d", q, resp.StatusCode)
		}
	}
	// Unknown design.
	resp, _ := c.Get(ts.URL + "/design/none/sweep")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing design: %d", resp.StatusCode)
	}
}

// sweepSite builds a logged-in site with one SRAM design named "d".
func sweepSite(t *testing.T) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	s, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"1024"}, "p_bits": {"8"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"mem"},
	})
	return s, ts, c
}

// TestSweepEvalErrorReported: a range that fails model validation must
// surface the evaluation error to the user — not a silent empty table.
func TestSweepEvalErrorReported(t *testing.T) {
	_, ts, c := sweepSite(t)
	code, body := fetch(t, c, ts.URL+"/design/d/sweep?var=vdd&from=0.1&to=0.3&steps=3")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("eval failure status = %d, want 422", code)
	}
	// The message names the offending point and row.
	if !strings.Contains(body, "outside") || !strings.Contains(body, "mem") {
		t.Errorf("error not surfaced:\n%s", grep(body, "outside"))
	}
	if strings.Count(body, "<tr>") > 1 {
		t.Error("failed sweep should not render result rows")
	}
}

// TestSweepDeadlineReported: an expired request context renders a
// timeout message with 503 instead of hanging or showing an empty
// table.
func TestSweepDeadlineReported(t *testing.T) {
	s, _, _ := sweepSite(t)
	u := s.users["u"]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := httptest.NewRequest("GET", "/design/d/sweep?var=vdd&from=1.0&to=3.3&steps=8", nil).WithContext(ctx)
	r.SetPathValue("name", "d")
	w := httptest.NewRecorder()
	s.handleDesignSweep(w, r, u)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline status = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "timed out") {
		t.Errorf("timeout not surfaced:\n%s", grep(w.Body.String(), "timed"))
	}
}

// TestSweepTimeoutConfigurable: Config.SweepTimeout replaces the
// built-in 30 s budget, and its value appears in the timeout message.
func TestSweepTimeoutConfigurable(t *testing.T) {
	s, ts, c := site(t, Config{SweepTimeout: 250 * time.Millisecond})
	if got := s.sweepTimeout(); got != 250*time.Millisecond {
		t.Fatalf("sweepTimeout() = %v", got)
	}
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"1024"}, "p_bits": {"8"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"mem"},
	})
	// A healthy sweep finishes far inside 250 ms.
	if code, _ := fetch(t, c, ts.URL+"/design/d/sweep"); code != 200 {
		t.Fatalf("sweep under configured budget: %d", code)
	}
	// An already-expired budget renders the configured value.
	u := s.users["u"]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := httptest.NewRequest("GET", "/design/d/sweep?var=vdd&from=1.0&to=3.3&steps=8", nil).WithContext(ctx)
	r.SetPathValue("name", "d")
	w := httptest.NewRecorder()
	s.handleDesignSweep(w, r, u)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline status = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "250ms") {
		t.Errorf("configured timeout not surfaced:\n%s", grep(w.Body.String(), "timed"))
	}
	// The zero value keeps the original default.
	var unset Server
	if got := unset.sweepTimeout(); got != defaultSweepTimeout {
		t.Fatalf("default sweepTimeout() = %v, want %v", got, defaultSweepTimeout)
	}
}

// TestSweepReusesLivePlan: sweeps read the live design, so repeated
// sweeps of an unchanged sheet share one compiled plan, and a sweep
// after a Play prices the edited sheet.
func TestSweepReusesLivePlan(t *testing.T) {
	s, ts, c := sweepSite(t)
	const sweepURL = "/design/d/sweep?var=f&from=1e6&to=4e6&steps=4"
	before, _ := scrape(t, ts.URL)
	for i := 0; i < 3; i++ {
		if code, _ := fetch(t, c, ts.URL+sweepURL); code != 200 {
			t.Fatalf("sweep %d: %d", i, code)
		}
	}
	after, _ := scrape(t, ts.URL)
	const compiles = `powerplay_sheet_plan_compiles_total{result="ok"}`
	if d := after[compiles] - before[compiles]; d != 1 {
		t.Errorf("3 sweeps of an unchanged design compiled %v plans, want 1", d)
	}

	_, old := fetch(t, c, ts.URL+sweepURL)
	post(t, c, ts.URL+"/design/d/play", url.Values{"glob_vdd": {"1.8"}})
	code, body := fetch(t, c, ts.URL+sweepURL)
	if code != 200 {
		t.Fatalf("post-edit sweep: %d", code)
	}
	if body == old {
		t.Error("sweep after a vdd Play still shows the old numbers")
	}
	// Every row equals EvaluateAt on the live (edited) design.
	cells := sweepCells(body)
	values := explore.Linspace(1e6, 4e6, 4)
	if len(cells) != 4*len(values) {
		t.Fatalf("sweep cells = %d, want %d", len(cells), 4*len(values))
	}
	u := s.users["u"]
	d := u.Designs["d"]
	for i, f := range values {
		u.mu.RLock()
		res, err := d.EvaluateAt(map[string]float64{"f": f})
		u.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			fmt.Sprintf("%.4g", f),
			units.Watts(res.Power).String(),
			units.SquareMeters(res.Area).String(),
			units.Seconds(res.Delay).String(),
		}
		if got := cells[4*i : 4*i+4]; !slices.Equal(got, want) {
			t.Errorf("f=%g: row %q, want %q", f, got, want)
		}
	}
}

// sweepCells returns the unescaped numeric cells of a sweep page's
// table, row-major.
func sweepCells(body string) []string {
	var out []string
	for _, m := range regexp.MustCompile(`<td class="num">([^<]*)</td>`).FindAllStringSubmatch(body, -1) {
		out = append(out, html.UnescapeString(m[1]))
	}
	return out
}

// TestSweepConcurrentWithEdits overlaps sweep requests with sheet
// edits through the real HTTP stack — the web-layer race regression
// (run under -race via make race).
func TestSweepConcurrentWithEdits(t *testing.T) {
	_, ts, c := sweepSite(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := c.Get(ts.URL + "/design/d/sweep?var=vdd&from=1.0&to=3.3&steps=16")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("concurrent sweep: %d", resp.StatusCode)
				}
			}
		}()
		wg.Add(1)
		go func(vdd string) {
			defer wg.Done()
			resp, err := c.PostForm(ts.URL+"/design/d/play", url.Values{"glob_vdd": {vdd}})
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}("1." + string(rune('1'+i)))
	}
	wg.Wait()
}
