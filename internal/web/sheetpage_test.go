package web

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"powerplay/internal/circuit"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/expr"
	"powerplay/internal/faultnet"
	"powerplay/internal/library"
	"powerplay/internal/units"
)

// oracleSheetSrc is the sheet template as it stood while the table's
// rows, globals and TOTAL row were {{range}} blocks and fields: the
// oracle the appended page must keep matching byte for byte.
const oracleSheetSrc = `{{define "sheet"}}{{template "head" .}}
<p>{{.Doc}}</p>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
<form method="POST" action="/design/{{.Name}}/play">
<table>
<tr><th>Name</th><th>Model</th><th>Parameters</th><th>Energy/op</th><th>Power</th><th>Area</th><th>Delay</th></tr>
{{range .Rows}}
<tr><td style="padding-left:{{.Indent}}em">{{if .Model}}<a href="/cell/{{.Model}}">{{.Name}}</a>{{else}}<b>{{.Name}}</b>{{end}}</td>
<td>{{if .Model}}<a href="/doc/{{.Model}}">{{.Model}}</a>{{end}}</td>
<td>{{range .Params}}{{.Name}}=<input name="row_{{.Field}}" value="{{.Src}}" size="9"> {{end}}</td>
<td class="num">{{.Energy}}{{if .Stale}} <span class="stale" title="{{.Stale}}">(stale)</span>{{end}}</td><td class="num">{{.Power}}</td>
<td class="num">{{.Area}}</td><td class="num">{{.Delay}}</td></tr>
{{end}}
{{range .Globals}}
<tr><td>{{.Name}}</td><td>variable</td>
<td><input name="glob_{{.Name}}" value="{{.Src}}" size="14"></td>
<td></td><td class="num">{{.Value}}</td><td></td><td></td></tr>
{{end}}
<tr class="total"><td>TOTAL</td><td></td><td></td><td></td>
<td class="num">{{.TotalPower}}</td><td class="num">{{.TotalArea}}</td>
<td class="num">{{.TotalDelay}}</td></tr>
</table>
<input type="submit" value="PLAY">
</form>
<p><a href="/design/{{.Name}}/analysis">Power/timing analysis</a> |
<a href="/design/{{.Name}}/sweep">Parameter sweep</a> |
<a href="/design/{{.Name}}/export">Export JSON</a> |
<a href="/design/{{.Name}}/csv">Export CSV</a></p>
<h2>Edit rows</h2>
<form method="POST" action="/design/{{.Name}}/rows">
Add row: name <input name="row" size="12"> model <input name="model" size="18">
under <input name="parent" size="12" placeholder="(root)">
<input type="submit" name="action" value="Add">
</form>
<form method="POST" action="/design/{{.Name}}/rows">
Remove row: path <input name="row" size="18">
<input type="submit" name="action" value="Remove">
</form>
<form method="POST" action="/design/{{.Name}}/rows">
Set variable: name <input name="var" size="10"> expr <input name="expr" size="14">
<input type="submit" name="action" value="SetVar">
</form>
{{template "foot" .}}{{end}}`

// oracleFrameSrc is the head and foot templates as they stood while
// the head was a template: the frame both page oracles render.
const oracleFrameSrc = `{{define "head"}}<!DOCTYPE html>
<html><head><title>{{.Site}} - {{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #888; padding: 2px 8px; text-align: left; }
th { background: #ddd; }
.num { text-align: right; font-family: monospace; }
.total { font-weight: bold; background: #eee; }
.err { color: #a00; font-weight: bold; }
.note { color: #555; font-size: smaller; }
.stale { color: #a60; font-size: smaller; font-style: italic; }
</style></head><body>
<p><a href="/menu">Main Menu</a> | <a href="/library">Library</a> |
<a href="/designs">Designs</a> | <a href="/models/new">New Model</a> |
<a href="/help">Help</a> | <a href="/logout">Logout</a></p>
<h1>{{.Title}}</h1>{{end}}

{{define "foot"}}</body></html>{{end}}`

// setParamValue binds a row parameter to a literal with any spelling,
// odd text included: SetParam binds and bumps the generation once, as
// a typed edit does, and the literal then replaces its expression.
func setParamValue(n *sheet.Node, name string, v float64, text string) {
	if err := n.SetParam(name, "0"); err != nil {
		panic(err)
	}
	for i := range n.Params {
		if n.Params[i].Name == name {
			n.Params[i].Expr = expr.Literal(v, text)
		}
	}
}

// oracleTmpl parses one page's oracle template over the frozen frame.
func oracleTmpl(src string) *template.Template {
	return template.Must(template.Must(template.New("pages").Parse(oracleFrameSrc)).Parse(src))
}

var oracleSheetTmpl = oracleTmpl(oracleSheetSrc)

type oracleSheetRow struct {
	Name, Model string
	Indent      int
	Params      []oracleSheetParam
	Energy      string
	Power       string
	Area        string
	Delay       string
	Stale       string
}

type oracleSheetParam struct {
	Name, Field, Src string
}

type oracleSheetGlobal struct {
	Name, Src, Value string
}

type oracleSheetPage struct {
	base
	Name, Doc                         string
	Rows                              []oracleSheetRow
	Globals                           []oracleSheetGlobal
	TotalPower, TotalArea, TotalDelay string
}

// oracleSci is units.Sci as fmt wrote it.
func oracleSci(v float64, unit string) string { return fmt.Sprintf("%.3e%s", v, unit) }

// oracleSheet renders the sheet page for d through the oracle
// template: figures from r unless evalErr is set, and errMsg on the
// page.
func oracleSheet(t testing.TB, s *Server, d *sheet.Design, r *sheet.Result, evalErr error, errMsg string) string {
	t.Helper()
	page := oracleSheetPage{base: s.base(d.Name + " summary"), Name: d.Name, Doc: d.Doc}
	page.Error = errMsg
	if evalErr != nil {
		r = nil
	}
	var walk func(n *sheet.Node, res *sheet.Result, depth int)
	walk = func(n *sheet.Node, res *sheet.Result, depth int) {
		if depth > 0 {
			row := oracleSheetRow{Name: n.Name, Model: n.Model, Indent: depth - 1}
			for _, b := range n.Params {
				row.Params = append(row.Params, oracleSheetParam{Name: b.Name, Field: n.Path() + "|" + b.Name, Src: b.Expr.Source()})
			}
			if res != nil {
				if res.Estimate != nil {
					row.Energy = oracleSci(float64(res.EnergyPerOp), "J")
					for _, note := range res.Estimate.Notes {
						if strings.HasPrefix(note, staleNotePrefix) {
							row.Stale = note
							break
						}
					}
				}
				row.Power = oracleSci(float64(res.Power), "W")
				row.Area = res.Area.String()
				row.Delay = res.Delay.String()
			}
			page.Rows = append(page.Rows, row)
		}
		for i, c := range n.Children {
			var cr *sheet.Result
			if res != nil && i < len(res.Children) {
				cr = res.Children[i]
			}
			walk(c, cr, depth+1)
		}
	}
	walk(d.Root, r, 0)
	for _, g := range d.Root.Globals {
		og := oracleSheetGlobal{Name: g.Name, Src: g.Expr.Source()}
		if v, ok := g.Expr.Const(); ok {
			og.Value = fmt.Sprintf("%g", v)
		}
		page.Globals = append(page.Globals, og)
	}
	if r != nil {
		page.TotalPower = oracleSci(float64(r.Power), "W")
		page.TotalArea = r.Area.String()
		page.TotalDelay = r.Delay.String()
	}
	var buf strings.Builder
	if err := oracleSheetTmpl.ExecuteTemplate(&buf, "sheet", page); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// oddText holds every byte class the table's escapers treat specially:
// html/template's escaped set, a space, '%', NUL, a multi-byte rune and
// a byte that is not UTF-8.
const oddText = "a\" ' & < > + % b\x00é\xff/c"

// TestSheetPageMatchesOracle: the served sheet page — appended whole by
// appendSheetPage — equals the frozen {{range}} oracle byte for byte,
// goes out in one piece with its Content-Length and status, and a GET's
// ETag is the frozen generation triple (Play and Rows send none).  It
// covers GET (identity and gzip), Play and Rows on every seeded design
// (rows nested under a hierarchy row), an evaluation error, a failed
// edit and a failed row action (400), a row served stale, and names,
// models, sources and globals holding oddText.
func TestSheetPageMatchesOracle(t *testing.T) {
	s, ts, c := seededSweepSite(t)
	u := s.users["u"]
	// expect compares a served page with the oracle for the design's
	// current state; errMsg is the page's expected error line.
	expect := func(what, name, body, errMsg string) {
		t.Helper()
		u.mu.RLock()
		d := u.Designs[name]
		res, err := s.evalDesign(u, d)
		if errMsg == "" && err != nil {
			errMsg = err.Error()
		}
		want := oracleSheet(t, s, d, res, err, errMsg)
		u.mu.RUnlock()
		if body != want {
			t.Errorf("%s: page differs from the oracle at byte %d:\n got %q\nwant %q",
				what, diffAt(body, want), around(body, diffAt(body, want)), around(want, diffAt(body, want)))
		}
	}
	get := func(name, errMsg string) {
		t.Helper()
		u.mu.RLock()
		d := u.Designs[name]
		etag := fmt.Sprintf("\"%x.%x.%x\"", d.ID(), d.Generation(), s.registry.Generation())
		u.mu.RUnlock()
		resp, body := getWith(t, c, ts.URL+"/design/"+name, map[string]string{"Accept-Encoding": "identity"})
		checkWhole(t, "GET "+name, resp, body, http.StatusOK, etag)
		expect("GET "+name, name, body, errMsg)
		// The gzipped copy, decompressed by the client.
		resp, body = getWith(t, c, ts.URL+"/design/"+name, nil)
		if !resp.Uncompressed || resp.Header.Get("ETag") != etag {
			t.Errorf("GET %s, gzip: uncompressed %v, ETag %s, want %s", name, resp.Uncompressed, resp.Header.Get("ETag"), etag)
		}
		expect("GET "+name+", gzip", name, body, errMsg)
	}
	postPage := func(path string, form url.Values, code int) string {
		t.Helper()
		resp, body := postWith(t, c, ts.URL+path, form)
		checkWhole(t, fmt.Sprintf("POST %s %v", path, form), resp, body, code, "")
		return body
	}

	plays := map[string]url.Values{
		"Luminance_1": {"glob_vdd": {"1.2"}, "row_look_up_table|words": {"2048"}},
		"Luminance_2": {"glob_vdd": {"1.1"}, "row_read_bank|words": {"1024"}},
		"InfoPad":     {"glob_vdd1": {"1.2"}, "row_display_lcds|pnom": {"0.4"}},
	}
	for _, name := range []string{"Luminance_1", "Luminance_2", "InfoPad"} {
		get(name, "")
		expect("Play "+name, name, postPage("/design/"+name+"/play", plays[name], http.StatusOK), "")
		// A row nested under the first hierarchy row, or the root.
		u.mu.RLock()
		parent := ""
		for _, row := range u.Designs[name].Root.Children {
			if row.Model == "" {
				parent = row.Path()
				break
			}
		}
		u.mu.RUnlock()
		add := url.Values{"action": {"Add"}, "row": {"oracle_row"}, "model": {library.Register}, "parent": {parent}}
		expect("Rows Add "+name, name, postPage("/design/"+name+"/rows", add, http.StatusOK), "")
		get(name, "")
		rm := url.Values{"action": {"Remove"}, "row": {strings.TrimPrefix(parent+"/oracle_row", "/")}}
		expect("Rows Remove "+name, name, postPage("/design/"+name+"/rows", rm, http.StatusOK), "")
	}
	u.mu.RLock()
	if u.Designs["InfoPad"].Root.Find("voltage_converters") == nil {
		t.Error("InfoPad lost its nested rows; the nested case proves nothing")
	}
	u.mu.RUnlock()

	// An evaluation error: the structural view, on Play and on GET.
	body := postPage("/design/Luminance_1/play", url.Values{"glob_vdd": {"0.1"}}, http.StatusOK)
	if !strings.Contains(body, `class="err"`) {
		t.Fatal("vdd = 0.1 V should fail model validation")
	}
	expect("Play, evaluation error", "Luminance_1", body, "")
	get("Luminance_1", "")
	postPage("/design/Luminance_1/play", url.Values{"glob_vdd": {"1.5"}}, http.StatusOK)

	// A failed edit reported on a 200 page, and a failed row action's 400.
	body = postPage("/design/Luminance_2/play", url.Values{"row_read_bank|words": {"1+("}}, http.StatusOK)
	i := strings.Index(body, `<p class="err">`)
	if i < 0 {
		t.Fatal("a malformed expression should be reported on the page")
	}
	msg := body[i+len(`<p class="err">`):]
	msg = msg[:strings.Index(msg, "</p>")]
	expect("Play, failed edit", "Luminance_2", body, unescapeHTML(msg))
	const noRow = `no<such>"row`
	body = postPage("/design/Luminance_2/rows", url.Values{"action": {"Add"}, "row": {"x"}, "model": {library.Register}, "parent": {noRow}}, http.StatusBadRequest)
	expect("Rows, failed action", "Luminance_2", body, fmt.Sprintf("no row %q", noRow))

	// oddText in row names, parameter sources and globals of a sheet
	// that evaluates, and in a model name on one that cannot.
	odd := sheet.NewDesign("odd", s.Registry())
	odd.Doc = oddText
	odd.Root.SetGlobalValue("vdd", 1.5, "1.5")
	odd.Root.SetGlobalValue("f", 2e6, "2MHz")
	odd.Root.SetGlobalValue(oddText, 1e-300, oddText)
	grp := odd.Root.MustAddChild("grp", "")
	grp.Name = oddText
	reg := grp.MustAddChild("reg", library.Register)
	reg.Name = oddText + "2"
	setParamValue(reg, "words", 1, oddText)
	setParamValue(reg, "bits", 6, "6")
	if err := s.InstallDesign("u", odd); err != nil {
		t.Fatal(err)
	}
	get("odd", "")
	expect("Play odd", "odd", postPage("/design/odd/play", url.Values{}, http.StatusOK), "")
	oddModel := sheet.NewDesign("oddmodel", s.Registry())
	oddModel.Root.MustAddChild("grp", "").MustAddChild("x", library.Register).Model = oddText
	if err := s.InstallDesign("u", oddModel); err != nil {
		t.Fatal(err)
	}
	get("oddmodel", "")
	if _, body := fetch(t, c, ts.URL+"/design/oddmodel"); !strings.Contains(body, `href="/cell/a%22%20%27%20&amp;%20%3c%20%3e%20&#43;%20%25%20b%00%c3%a9%ff/c"`) {
		t.Error("the model href is not URL-normalized")
	}

	// A row served stale: the publisher of a mounted model dies and a
	// Play re-prices from the last-known-good estimate.
	p := faultedSite(t)
	rc := &Remote{BaseURL: p.URL(), retry: fastRetry(), breaker: &circuit.Breaker{Threshold: 2, Cooldown: time.Hour}}
	if _, err := Mount(s.Registry(), rc, "east"); err != nil {
		t.Fatal(err)
	}
	remote := sheet.NewDesign("remote", s.Registry())
	remote.Root.SetGlobalValue("vdd", 1.5, "1.5")
	remote.Root.SetGlobalValue("f", 1e6, "1MHz")
	mem := remote.Root.MustAddChild("mem", "east."+library.SRAM)
	setParamValue(mem, "words", 1024, "1024")
	setParamValue(mem, "bits", 8, "8")
	if err := s.InstallDesign("u", remote); err != nil {
		t.Fatal(err)
	}
	get("remote", "")
	p.SetDefault(faultnet.Fault{Mode: faultnet.Reset})
	body = postPage("/design/remote/play", url.Values{}, http.StatusOK)
	if !strings.Contains(body, "(stale)</span>") {
		t.Fatalf("the dead publisher's row is not marked stale:\n%s", body)
	}
	expect("Play, stale row", "remote", body, "")
	get("remote", "")
}

// writeCounter is a ResponseRecorder that counts body writes.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// TestHotPagesWriteOnce: Play, Rows, the sweep page and a sheet GET —
// error pages too — reach the connection through the whole middleware
// stack in one Write, with their Content-Length.
func TestHotPagesWriteOnce(t *testing.T) {
	_, h, cookie := allocSite(t)
	for _, tc := range []struct {
		method, target, body string
		code                 int
	}{
		{http.MethodPost, "/design/InfoPad/play", "glob_vdd1=1.2", http.StatusOK},
		{http.MethodPost, "/design/Luminance_2/rows", "action=Add&row=once&model=" + library.Register, http.StatusOK},
		{http.MethodPost, "/design/Luminance_2/rows", "action=Remove&row=nosuch", http.StatusBadRequest},
		{http.MethodGet, "/design/InfoPad/sweep?var=vdd1&from=1&to=3.3&steps=200", "", http.StatusOK},
		{http.MethodGet, "/design/InfoPad/sweep?var=vdd1&from=1&to=3.3&steps=1", "", http.StatusBadRequest},
		{http.MethodGet, "/design/Luminance_1/sweep?var=vdd&from=0.1&to=0.3&steps=3", "", http.StatusUnprocessableEntity},
		{http.MethodGet, "/design/InfoPad", "", http.StatusOK},
	} {
		r := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		if tc.method == http.MethodPost {
			r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		r.AddCookie(cookie)
		w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, r)
		what := tc.method + " " + tc.target
		if w.Code != tc.code {
			t.Fatalf("%s: status %d, want %d", what, w.Code, tc.code)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d writes, want 1", what, w.writes)
		}
		if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
			t.Errorf("%s: Content-Length %q, want %s", what, got, want)
		}
	}
}

// postWith posts a form and returns the response with its body read.
func postWith(t *testing.T, c *http.Client, url string, form url.Values) (*http.Response, string) {
	t.Helper()
	resp, err := c.PostForm(url, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// checkWhole checks a hot page's response: its status, a Content-Length
// that matches the body it sent unchunked, and its ETag ("" for none).
func checkWhole(t *testing.T, what string, resp *http.Response, body string, code int, etag string) {
	t.Helper()
	if resp.StatusCode != code {
		t.Fatalf("%s: status %d, want %d: %s", what, resp.StatusCode, code, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
		t.Errorf("%s: Content-Length %d, transfer encoding %v, for a %d-byte body",
			what, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("%s: ETag %q, want %q", what, got, etag)
	}
}

// unescapeHTML reverses html/template's escaping of an error line.
func unescapeHTML(s string) string {
	return strings.NewReplacer("&#34;", `"`, "&#39;", "'", "&#43;", "+", "&lt;", "<", "&gt;", ">", "&amp;", "&").Replace(s)
}

// FuzzSheetPageMatchesOracle: for any row name, model name, parameter
// source, global name and figure, the appended page renders what the
// oracle does — with figures (one row stale, one row without a result),
// as the structural view of a failed evaluation, and with an error line
// inserted after the page was laid out.
func FuzzSheetPageMatchesOracle(f *testing.F) {
	f.Add("row", library.Register, "f/16", "vdd", 1.5)
	f.Add(oddText, oddText, oddText, oddText, 1e-300)
	f.Add("", "", "", "", math.Inf(-1))
	f.Add("a/b", "x?y#z", "1e+06", "é", math.NaN())
	f.Add("\xff\x00", "%zz%41", "<script>", "'\"", math.Copysign(0, -1))
	f.Add("%41", "%4%41%4g%", "%", "%%", 5e-324)
	s, err := NewServer(Config{}, library.Standard())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, name, modelName, src, global string, v float64) {
		d := sheet.NewDesign("fuzz", s.Registry())
		d.Root.SetGlobalValue(global, v, src)
		d.Root.SetGlobalValue("g2", -v, "")
		grp := d.Root.MustAddChild("grp", "")
		grp.Name = name
		leaf := grp.MustAddChild("leaf", library.Register)
		leaf.Name, leaf.Model = name, modelName
		setParamValue(leaf, global, v, src)
		setParamValue(leaf, "bits", 6, "6")
		bare := d.Root.MustAddChild("bare", library.Register)
		bare.Model = modelName
		est := &model.Estimate{Notes: []string{src, staleNotePrefix + ": " + name}}
		r := &sheet.Result{Power: units.Watts(v), Area: units.SquareMeters(2 * v), Delay: units.Seconds(-v), Children: []*sheet.Result{{
			Power: units.Watts(v), Children: []*sheet.Result{{Power: units.Watts(v), EnergyPerOp: units.Joules(v), Estimate: est}},
		}}}
		match := func(got []byte, want string) {
			t.Helper()
			if string(got) != want {
				t.Fatalf("page differs from the oracle at byte %d:\n got %q\nwant %q",
					diffAt(string(got), want), around(string(got), diffAt(string(got), want)), around(want, diffAt(string(got), want)))
			}
		}
		for _, evalErr := range []error{nil, fmt.Errorf("eval %s", name)} {
			res, errMsg := sheetView(r, evalErr)
			got, errAt := s.appendSheetPage(nil, d, res, errMsg)
			match(got, oracleSheet(t, s, d, r, evalErr, errMsg))
			if evalErr == nil {
				// An error found after the page was laid out.
				late := "persisting " + src
				match(insertErrorLine(got, errAt, late), oracleSheet(t, s, d, r, nil, late))
			}
		}
	})
}

// TestAppendURLPathMatchesTemplate: the href escaper agrees with
// html/template's URL normalizer and attribute escaper on every byte
// value, and on valid, truncated and malformed percent escapes.
func TestAppendURLPathMatchesTemplate(t *testing.T) {
	tmpl := template.Must(template.New("t").Parse(`<a href="/cell/{{.}}">`))
	var text []byte
	for c := 0; c < 256; c++ {
		text = append(text, byte(c), 'x')
	}
	text = append(text, "%41%4g%zz%%%a%0"...)
	for _, s := range []string{string(text), "%41", "%4", "%", "a%2F", "é"} {
		var want strings.Builder
		if err := tmpl.Execute(&want, s); err != nil {
			t.Fatal(err)
		}
		got := `<a href="/cell/` + string(appendURLPath(nil, s)) + `">`
		if got != want.String() {
			t.Errorf("appendURLPath(%q) differs from html/template at byte %d:\n got %q\nwant %q",
				s, diffAt(got, want.String()), around(got, diffAt(got, want.String())), around(want.String(), diffAt(got, want.String())))
		}
	}
}
