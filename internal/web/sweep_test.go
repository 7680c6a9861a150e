package web

import (
	"context"
	"fmt"
	"html"
	"html/template"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/units"
	"powerplay/internal/vqsim"
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

// oracleSweepSrc is the sweep page as html/template rendered it before
// appendSweepRows: the same frame, with a {{range}} block over the
// cells.  TestSweepPageMatchesOracle and FuzzSweepPageMatchesOracle
// hold the appended page to it.
const oracleSweepSrc = `{{define "sweep"}}{{template "head" .}}
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
<form method="GET" action="/design/{{.Name}}/sweep">
Variable <input name="var" value="{{.Var}}" size="8">
from <input name="from" value="{{.From}}" size="8">
to <input name="to" value="{{.To}}" size="8">
steps <input name="steps" value="{{.Steps}}" size="4">
<input type="submit" value="Sweep">
</form>
{{if .Rows}}
<table>
<tr><th>{{.Var}}</th><th>Power</th><th>Area</th><th>Delay</th><th>Pareto</th></tr>
{{range .Rows}}
<tr><td class="num">{{.Value}}</td><td class="num">{{.Power}}</td>
<td class="num">{{.Area}}</td><td class="num">{{.Delay}}</td>
<td>{{if .Pareto}}*{{end}}</td></tr>
{{end}}
</table>
<p class="note">Rows marked * are power/delay non-dominated.</p>
{{end}}
<p><a href="/design/{{.Name}}">Back to the spreadsheet</a></p>
{{template "foot" .}}{{end}}`

var oracleSweepTmpl = oracleTmpl(oracleSweepSrc)

type oracleSweepRow struct {
	Value, Power, Area, Delay string
	Pareto                    bool
}

type oracleSweepPage struct {
	base
	Name, Var, From, To, Steps string
	Rows                       []oracleSweepRow
}

// oracleSweep renders the page for a sweep of pts (nil for an error
// page) on the named site with errMsg as the error: cells formatted by
// fmt and the units Stringers, front rows marked by the quadratic
// dominance definition.
func oracleSweep(t *testing.T, site, name string, q url.Values, pts []explore.Point, errMsg string) string {
	t.Helper()
	page := oracleSweepPage{
		base: base{Site: site, Title: name + " exploration"},
		Name: name, Var: q.Get("var"), From: q.Get("from"), To: q.Get("to"), Steps: q.Get("steps"),
	}
	page.Error = errMsg
	for i, p := range pts {
		dominated := false
		for j, o := range pts {
			if i != j && o.Power <= p.Power && o.Delay <= p.Delay && (o.Power < p.Power || o.Delay < p.Delay) {
				dominated = true
			}
		}
		page.Rows = append(page.Rows, oracleSweepRow{
			Value:  fmt.Sprintf("%.4g", p.Vars[page.Var]),
			Power:  units.Watts(p.Power).String(),
			Area:   units.SquareMeters(p.Area).String(),
			Delay:  units.Seconds(p.Delay).String(),
			Pareto: !dominated,
		})
	}
	var buf strings.Builder
	if err := oracleSweepTmpl.ExecuteTemplate(&buf, "sweep", page); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// seededSweepSite is a logged-in site holding the paper's three seeded
// designs (Luminance_1, Luminance_2, InfoPad) for user "u".
func seededSweepSite(t *testing.T) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	s, ts, c := site(t, Config{})
	reg := s.Registry()
	for _, build := range []func(*model.Registry) (*sheet.Design, error){vqsim.Luminance1, vqsim.Luminance2, infopad.Build} {
		d, err := build(reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InstallDesign("u", d); err != nil {
			t.Fatal(err)
		}
	}
	loginAs(t, ts, c, "u", "")
	return s, ts, c
}

// TestSweepPageMatchesOracle: the served sweep page — appended whole by
// appendSweepPage — equals the frozen {{range}} oracle byte for byte and
// goes out in one piece with its Content-Length, its status and no
// ETag, over the benchmark's sweep ranges on the seeded designs,
// e-notation values (whose '+' html/template escapes), Pareto stars, a
// from == to range, and the 400, 422 and 503 error pages.
func TestSweepPageMatchesOracle(t *testing.T) {
	s, ts, c := seededSweepSite(t)
	u := s.users["u"]
	sweepOf := func(name string, q url.Values) ([]explore.Point, error) {
		from, _ := units.Parse(q.Get("from"))
		to, _ := units.Parse(q.Get("to"))
		steps, _ := strconv.Atoi(q.Get("steps"))
		u.mu.RLock()
		defer u.mu.RUnlock()
		return explore.Sweep(context.Background(), u.Designs[name], q.Get("var"), explore.Linspace(from, to, steps))
	}
	type sweepCase struct {
		name, query string
		mark        string // a fragment the page must show
	}
	ok := []sweepCase{
		{"Luminance_1", "var=vdd&from=1&to=3.3&steps=200", "<td>*</td>"},
		{"Luminance_1", "var=f&from=5e5&to=8e6&steps=200", "<td></td>"},
		{"Luminance_2", "var=vdd&from=1&to=3.3&steps=200", "<td>*</td>"},
		{"Luminance_2", "var=f&from=500k&to=8MHz&steps=200", "e&#43;06"},
		{"InfoPad", "var=vdd1&from=1&to=3.3&steps=200", "<td>*</td>"},
		{"InfoPad", "var=vdd3&from=3.3&to=6&steps=200", "<td>*</td>"},
		{"InfoPad", "var=fclk&from=5e6&to=4e7&steps=200", "e&#43;07"},
		{"InfoPad", "var=vdd1&from=1.234&to=2.875&steps=200", "<td>*</td>"},
		{"Luminance_1", "var=vdd&from=1.5&to=1.5&steps=5", "<td>*</td>"},
		{"Luminance_2", "", "<td>*</td>"},
	}
	for _, tc := range ok {
		q, _ := url.ParseQuery(tc.query)
		resp, body := getWith(t, c, ts.URL+"/design/"+tc.name+"/sweep?"+tc.query, nil)
		checkWhole(t, tc.name+"?"+tc.query, resp, body, http.StatusOK, "")
		if tc.query == "" {
			q = url.Values{"var": {"vdd"}, "from": {"1.0"}, "to": {"3.3"}, "steps": {"8"}}
		}
		pts, err := sweepOf(tc.name, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSweep(t, s.cfg.SiteName, tc.name, q, pts, ""); body != want {
			t.Errorf("%s?%s: page differs from the oracle at byte %d:\n got %q\nwant %q",
				tc.name, tc.query, diffAt(body, want), around(body, diffAt(body, want)), around(want, diffAt(body, want)))
		}
		if !strings.Contains(body, tc.mark) {
			t.Errorf("%s?%s: page lacks %q", tc.name, tc.query, tc.mark)
		}
	}

	// Error pages: the frame around the message is unchanged too.
	_, badFrom := units.Parse("abc")
	const evalQuery = "var=vdd&from=0.1&to=0.3&steps=3"
	evalQ, _ := url.ParseQuery(evalQuery)
	_, evalErr := sweepOf("Luminance_1", evalQ)
	if evalErr == nil {
		t.Fatal("a sweep down to 0.1 V should fail model validation")
	}
	bad := []struct {
		query string
		code  int
		msg   string
	}{
		{"var=vdd&from=abc&to=3&steps=4", http.StatusBadRequest, "from: " + badFrom.Error()},
		{"var=vdd&from=1&to=3&steps=1", http.StatusBadRequest, "steps must be an integer in [2, 200]"},
		{"var=no<such>&from=1&to=3&steps=4", http.StatusBadRequest, `no variable "no<such>" in this design`},
		{evalQuery, http.StatusUnprocessableEntity, evalErr.Error()},
	}
	for _, tc := range bad {
		q, _ := url.ParseQuery(tc.query)
		resp, body := getWith(t, c, ts.URL+"/design/Luminance_1/sweep?"+q.Encode(), nil)
		checkWhole(t, tc.query, resp, body, tc.code, "")
		if want := oracleSweep(t, s.cfg.SiteName, "Luminance_1", q, nil, tc.msg); body != want {
			t.Errorf("%s: error page differs from the oracle at byte %d:\n got %q\nwant %q",
				tc.query, diffAt(body, want), around(body, diffAt(body, want)), around(want, diffAt(body, want)))
		}
	}

	// The 503 page, from an already-expired budget.
	const timeoutQuery = "var=vdd&from=1.0&to=3.3&steps=8"
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := httptest.NewRequest("GET", "/design/InfoPad/sweep?"+timeoutQuery, nil).WithContext(ctx)
	r.SetPathValue("name", "InfoPad")
	w := httptest.NewRecorder()
	s.handleDesignSweep(w, r, u)
	checkWhole(t, "expired budget", w.Result(), w.Body.String(), http.StatusServiceUnavailable, "")
	q, _ := url.ParseQuery(timeoutQuery)
	msg := fmt.Sprintf("sweep timed out after %s — a model is stalling; try fewer steps", s.sweepTimeout())
	if got, want := w.Body.String(), oracleSweep(t, s.cfg.SiteName, "InfoPad", q, nil, msg); got != want {
		t.Errorf("timeout page differs from the oracle at byte %d:\n got %q\nwant %q",
			diffAt(got, want), around(got, diffAt(got, want)), around(want, diffAt(got, want)))
	}
}

// FuzzSweepPageMatchesOracle: for any design name, site name, error
// and echoed var, from, to and steps fields, the appended sweep page
// renders what the oracle does — as an error page and with a table.
func FuzzSweepPageMatchesOracle(f *testing.F) {
	f.Add("Luminance_2", "PowerPlay", "vdd", "1.0", "3.3", "8", "")
	f.Add(oddText, oddText, oddText, oddText, oddText, oddText, oddText)
	f.Add("", "", "", "", "", "", "steps must be an integer in [2, 200]")
	f.Add("a/b", "é", "x?y#z", "1e+06", "%41", "<script>", `no variable "no<such>" in this design`)
	f.Add("%4%41%zz", "\xff\x00", "'\"", "500k", "8MHz", "200", "explore: vdd=0.1: outside")
	f.Fuzz(func(t *testing.T, name, site, variable, from, to, steps, errMsg string) {
		q := url.Values{"var": {variable}, "from": {from}, "to": {to}, "steps": {steps}}
		page := sweepPage{base: base{Site: site, Title: name + " exploration"},
			Name: name, Var: variable, From: from, To: to, Steps: steps}
		page.Error = errMsg
		match := func(got []byte, want string) {
			t.Helper()
			if string(got) != want {
				t.Fatalf("page differs from the oracle at byte %d:\n got %q\nwant %q",
					diffAt(string(got), want), around(string(got), diffAt(string(got), want)), around(want, diffAt(string(got), want)))
			}
		}
		match(appendSweepPage(nil, &page, nil, explore.Columns{}, nil), oracleSweep(t, site, name, q, nil, errMsg))
		pts := []explore.Point{
			{Vars: map[string]float64{variable: 1.5}, Power: 1e-3, Area: 2e-6, Delay: 3e-9},
			{Vars: map[string]float64{variable: 2.5e6}, Power: 5e-4, Area: 1e-9, Delay: 4e-9},
			{Vars: map[string]float64{variable: -1e-7}, Power: 2e-3, Area: 0, Delay: 5e-9},
		}
		page.Error = ""
		values := []float64{pts[0].Vars[variable], pts[1].Vars[variable], pts[2].Vars[variable]}
		cols := explore.Columns{
			Power: []float64{pts[0].Power, pts[1].Power, pts[2].Power},
			Area:  []float64{pts[0].Area, pts[1].Area, pts[2].Area},
			Delay: []float64{pts[0].Delay, pts[1].Delay, pts[2].Delay},
		}
		match(appendSweepPage(nil, &page, values, cols, explore.Front(cols.Power, cols.Delay)), oracleSweep(t, site, name, q, pts, ""))
	})
}

// diffAt is the first byte offset where a and b differ.
func diffAt(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// around is up to 60 bytes of s on either side of offset i.
func around(s string, i int) string {
	return s[max(0, i-60):min(len(s), i+60)]
}

// TestAppendHTMLTextMatchesTemplate: the row escaper agrees with
// html/template's element-text escaping on every byte value.
func TestAppendHTMLTextMatchesTemplate(t *testing.T) {
	tmpl := template.Must(template.New("t").Parse(`<td>{{.}}</td>`))
	var text []byte
	for c := 0; c < 256; c++ {
		text = append(text, byte(c), 'x')
	}
	text = append(text, "µm 1.2e+06 <a href='x'>&amp;\"</a>"...)
	var want strings.Builder
	if err := tmpl.Execute(&want, string(text)); err != nil {
		t.Fatal(err)
	}
	got := "<td>" + string(appendHTMLText(nil, text)) + "</td>"
	if got != want.String() {
		t.Errorf("appendHTMLText differs from html/template at byte %d:\n got %q\nwant %q",
			diffAt(got, want.String()), around(got, diffAt(got, want.String())), around(want.String(), diffAt(got, want.String())))
	}
}
