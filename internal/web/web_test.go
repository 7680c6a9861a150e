package web

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/library"
)

// site spins up a test server over the standard library.
func site(t *testing.T, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	s, err := NewServer(cfg, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	return s, ts, client
}

// login authenticates the test client as the given user.
func loginAs(t *testing.T, ts *httptest.Server, c *http.Client, user, password string) {
	t.Helper()
	form := url.Values{"user": {user}}
	if password != "" {
		form.Set("password", password)
	}
	resp, err := c.PostForm(ts.URL+"/login", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("login: %s: %s", resp.Status, body)
	}
}

func fetch(t *testing.T, c *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func post(t *testing.T, c *http.Client, url string, form url.Values) (int, string) {
	t.Helper()
	resp, err := c.PostForm(url, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestLoginFlow(t *testing.T) {
	_, ts, c := site(t, Config{SiteName: "Berkeley"})
	// Unidentified users land on the identification page.
	code, body := fetch(t, c, ts.URL+"/")
	if code != 200 || !strings.Contains(body, "User Identification") {
		t.Fatalf("front: %d %q", code, body[:min(len(body), 120)])
	}
	// Protected pages redirect to it.
	code, body = fetch(t, c, ts.URL+"/menu")
	if !strings.Contains(body, "User Identification") {
		t.Fatal("menu should bounce to login")
	}
	loginAs(t, ts, c, "lidsky", "")
	code, body = fetch(t, c, ts.URL+"/menu")
	if code != 200 || !strings.Contains(body, "Welcome, <b>lidsky</b>") {
		t.Fatalf("menu after login: %d", code)
	}
	// Logout kills the session.
	fetch(t, c, ts.URL+"/logout")
	_, body = fetch(t, c, ts.URL+"/menu")
	if !strings.Contains(body, "User Identification") {
		t.Fatal("logout should invalidate the session")
	}
}

func TestLoginValidation(t *testing.T) {
	_, ts, c := site(t, Config{})
	code, body := post(t, c, ts.URL+"/login", url.Values{"user": {"bad name!"}})
	if code != http.StatusForbidden || !strings.Contains(body, "invalid user name") {
		t.Errorf("bad name: %d", code)
	}
}

func TestPasswordRestriction(t *testing.T) {
	_, ts, c := site(t, Config{Password: "sekrit"})
	code, _ := post(t, c, ts.URL+"/login", url.Values{"user": {"eve"}})
	if code != http.StatusForbidden {
		t.Errorf("missing password: %d", code)
	}
	loginAs(t, ts, c, "alice", "sekrit")
	code, _ = fetch(t, c, ts.URL+"/menu")
	if code != 200 {
		t.Errorf("with password: %d", code)
	}
	// API also guarded.
	resp, err := http.Get(ts.URL + "/api/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("api without key: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/models", nil)
	req.Header.Set("X-PowerPlay-Key", "sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("api with key: %d", resp.StatusCode)
	}
}

func TestLibraryPage(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	code, body := fetch(t, c, ts.URL+"/library")
	if code != 200 {
		t.Fatalf("library: %d", code)
	}
	for _, want := range []string{library.ArrayMultiplier, library.SRAM, library.DCDC, "Computation", "Storage"} {
		if !strings.Contains(body, want) {
			t.Errorf("library missing %q", want)
		}
	}
}

func TestCellFormAndInstantFeedback(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	// The Figure 4 form.
	code, body := fetch(t, c, ts.URL+"/cell/"+library.ArrayMultiplier)
	if code != 200 || !strings.Contains(body, "p_bwA") || !strings.Contains(body, "uncorrelated inputs") {
		t.Fatalf("cell form: %d", code)
	}
	// Evaluate 8×8 at 1.5 V, 2 MHz with engineering notation inputs.
	code, body = post(t, c, ts.URL+"/cell/"+library.ArrayMultiplier, url.Values{
		"p_bwA": {"8"}, "p_bwB": {"8"}, "p_vdd": {"1.5V"}, "p_f": {"2MHz"},
		"action": {"Calculate"},
	})
	if code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	// C_T = 64·253fF = 16.19pF; P = C·V²·f = 72.88µW.
	if !strings.Contains(body, "16.19pF") {
		t.Errorf("capacitance missing: %s", grep(body, "pF"))
	}
	if !strings.Contains(body, "72.86uW") {
		t.Errorf("power missing: %s", grep(body, "uW"))
	}
	// The typed values become the user's defaults on the next GET.
	_, body = fetch(t, c, ts.URL+"/cell/"+library.ArrayMultiplier)
	if !strings.Contains(body, `value="2M"`) {
		t.Error("defaults not remembered")
	}
	// Bad input is reported, not 500.
	code, body = post(t, c, ts.URL+"/cell/"+library.ArrayMultiplier, url.Values{
		"p_bwA": {"eight"}, "action": {"Calculate"},
	})
	if code != http.StatusBadRequest || !strings.Contains(body, "parameter bwA") {
		t.Errorf("bad input: %d", code)
	}
	// Out-of-range input is reported.
	code, _ = post(t, c, ts.URL+"/cell/"+library.ArrayMultiplier, url.Values{
		"p_bwA": {"100000"}, "action": {"Calculate"},
	})
	if code != http.StatusBadRequest {
		t.Errorf("out of range: %d", code)
	}
	// Unknown cell.
	code, _ = fetch(t, c, ts.URL+"/cell/no.such.cell")
	if code != http.StatusNotFound {
		t.Errorf("missing cell: %d", code)
	}
}

func TestDesignWorkflow(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	// Create a design.
	code, _ := post(t, c, ts.URL+"/designs", url.Values{"name": {"luma"}})
	if code != 200 {
		t.Fatalf("create design: %d", code)
	}
	// Add a configured SRAM from its cell page (the save-to-sheet flow).
	code, body := post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"4096"}, "p_bits": {"6"},
		"action": {"Add to design"}, "design": {"luma"}, "row": {"lut"},
	})
	if code != 200 || !strings.Contains(body, "lut") {
		t.Fatalf("add to design: %d", code)
	}
	// The sheet shows the row with its parameters and a priced total.
	code, body = fetch(t, c, ts.URL+"/design/luma")
	if code != 200 || !strings.Contains(body, "lut") || !strings.Contains(body, "TOTAL") {
		t.Fatalf("sheet: %d", code)
	}
	if !strings.Contains(body, `value="4096"`) {
		t.Error("row parameters not shown")
	}
	// PLAY with an edited global: vdd 1.5 → 3.0 quadruples the total.
	before := totalWatts(t, body)
	code, body = post(t, c, ts.URL+"/design/luma/play", url.Values{
		"glob_vdd": {"3.0"}, "glob_f": {"1MHz"},
		"row_lut|words": {"4096"}, "row_lut|bits": {"6"},
	})
	if code != 200 {
		t.Fatalf("play: %d", code)
	}
	after := totalWatts(t, body)
	if math.Abs(after/before-4) > 1e-3 {
		t.Errorf("vdd edit: before %v after %v", before, after)
	}
	// Row add/remove/setvar endpoints.
	code, body = post(t, c, ts.URL+"/design/luma/rows", url.Values{
		"action": {"Add"}, "row": {"outreg"}, "model": {library.Register},
	})
	if code != 200 || !strings.Contains(body, "outreg") {
		t.Fatalf("add row: %d", code)
	}
	code, body = post(t, c, ts.URL+"/design/luma/rows", url.Values{
		"action": {"SetVar"}, "var": {"fread"}, "expr": {"f/16"},
	})
	if code != 200 || !strings.Contains(body, "fread") {
		t.Fatalf("setvar: %d", code)
	}
	code, body = post(t, c, ts.URL+"/design/luma/rows", url.Values{
		"action": {"Remove"}, "row": {"outreg"},
	})
	if code != 200 || strings.Contains(body, "outreg") {
		t.Fatalf("remove row: %d", code)
	}
	// Errors are reported inline.
	code, body = post(t, c, ts.URL+"/design/luma/rows", url.Values{
		"action": {"Add"}, "row": {"x"}, "model": {"ghost.model"},
	})
	if code != 200 || !strings.Contains(body, "ghost.model") {
		// Adding succeeds structurally; evaluation reports the missing model.
		t.Fatalf("ghost model: %d", code)
	}
	// Duplicate design name rejected.
	code, body = post(t, c, ts.URL+"/designs", url.Values{"name": {"luma"}})
	if code != http.StatusBadRequest || !strings.Contains(body, "already exists") {
		t.Errorf("duplicate design: %d", code)
	}
}

// totalWatts extracts the numeric total from the sheet page.
func totalWatts(t *testing.T, body string) float64 {
	t.Helper()
	i := strings.Index(body, `class="total"`)
	if i < 0 {
		t.Fatal("no total row")
	}
	chunk := body[i:]
	j := strings.Index(chunk, "e-")
	if j < 0 {
		j = strings.Index(chunk, "e+")
	}
	if j < 0 {
		t.Fatalf("no scientific total in %q", chunk[:min(len(chunk), 200)])
	}
	start := j
	for start > 0 && (chunk[start-1] == '.' || chunk[start-1] >= '0' && chunk[start-1] <= '9') {
		start--
	}
	var v float64
	if _, err := fmt.Sscanf(chunk[start:], "%e", &v); err != nil {
		t.Fatalf("parse total: %v", err)
	}
	return v
}

func grep(body, needle string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, needle) {
			return line
		}
	}
	return "(no line)"
}

func TestModelDefinitionForm(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	code, body := fetch(t, c, ts.URL+"/models/new")
	if code != 200 || !strings.Contains(body, "Define a primitive") {
		t.Fatalf("form: %d", code)
	}
	// Create a model with a parameter line and an equation.
	code, _ = post(t, c, ts.URL+"/models/new", url.Values{
		"name": {"user.mac"}, "title": {"Multiply-accumulate"},
		"class":  {"computation"},
		"params": {"bits 8 1 64 int\ntaps 16 1 1024 int"},
		"csw":    {"taps * (bits*bits*253f + bits*48f)"},
		"doc":    {"one FIR tap worth of MAC"},
	})
	if code != 200 {
		t.Fatalf("create: %d", code)
	}
	// It shows up in the library and evaluates through the cell form.
	_, body = fetch(t, c, ts.URL+"/library")
	if !strings.Contains(body, "user.mac") {
		t.Error("new model missing from library")
	}
	code, body = post(t, c, ts.URL+"/cell/user.mac", url.Values{
		"p_bits": {"8"}, "p_taps": {"1"}, "p_vdd": {"1.5"}, "p_f": {"1MHz"},
		"action": {"Calculate"},
	})
	if code != 200 {
		t.Fatalf("eval user model: %d", code)
	}
	if !strings.Contains(body, "16.58pF") { // 64·253f + 8·48f
		t.Errorf("user model result: %s", grep(body, "pF"))
	}
	// Documentation page was generated.
	code, body = fetch(t, c, ts.URL+"/doc/user.mac")
	if code != 200 || !strings.Contains(body, "one FIR tap") {
		t.Fatalf("doc: %d", code)
	}
	// Bad definitions are rejected with messages.
	cases := []url.Values{
		{"name": {""}, "csw": {"1p"}},
		{"name": {"user.bad"}, "csw": {"1p +"}},
		{"name": {"user.bad"}, "csw": {"nosuchvar*1p"}},
		{"name": {"user.bad"}, "params": {"justname"}, "csw": {"1p"}},
		{"name": {library.SRAM}, "csw": {"1p"}}, // can't shadow a built-in
	}
	for i, form := range cases {
		code, _ = post(t, c, ts.URL+"/models/new", form)
		if code != http.StatusBadRequest {
			t.Errorf("bad model %d accepted: %d", i, code)
		}
	}
}

func TestDocAndHelpPages(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	code, body := fetch(t, c, ts.URL+"/doc/"+library.SRAM)
	if code != 200 || !strings.Contains(body, "EQ 7") {
		t.Fatalf("doc: %d", code)
	}
	if !strings.Contains(body, "words") || !strings.Contains(body, "[1, ") {
		t.Error("doc should list parameters with ranges")
	}
	code, _ = fetch(t, c, ts.URL+"/doc/no.such")
	if code != http.StatusNotFound {
		t.Errorf("missing doc: %d", code)
	}
	code, body = fetch(t, c, ts.URL+"/help")
	if code != 200 || !strings.Contains(body, "Three minutes") {
		t.Fatalf("help: %d", code)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c := site(t, Config{DataDir: dir})
	_ = s1
	loginAs(t, ts1, c, "rabaey", "")
	// Create state: defaults, a design, a user model.
	post(t, c, ts1.URL+"/cell/"+library.ArrayMultiplier, url.Values{
		"p_bwA": {"12"}, "action": {"Calculate"},
	})
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"persisted"}})
	post(t, c, ts1.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"2048"}, "action": {"Add to design"},
		"design": {"persisted"}, "row": {"bank"},
	})
	post(t, c, ts1.URL+"/models/new", url.Values{
		"name": {"user.persisted"}, "csw": {"1p"}, "class": {"computation"},
	})
	ts1.Close()

	// A fresh server over the same directory restores everything.
	s2, err := NewServer(Config{DataDir: dir}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	jar, _ := cookiejar.New(nil)
	c2 := &http.Client{Jar: jar}
	loginAs(t, ts2, c2, "rabaey", "")
	_, body := fetch(t, c2, ts2.URL+"/cell/"+library.ArrayMultiplier)
	if !strings.Contains(body, `value="12"`) {
		t.Error("defaults lost across restart")
	}
	code, body := fetch(t, c2, ts2.URL+"/design/persisted")
	if code != 200 || !strings.Contains(body, "bank") {
		t.Error("design lost across restart")
	}
	if _, ok := s2.Registry().Lookup("user.persisted"); !ok {
		t.Error("user model lost across restart")
	}
}

func TestAPIModelListAndEval(t *testing.T) {
	_, ts, _ := site(t, Config{})
	resp, err := http.Get(ts.URL + "/api/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list []ModelSummary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) < 20 {
		t.Errorf("model list too short: %d", len(list))
	}
	// Info endpoint.
	resp, err = http.Get(ts.URL + "/api/v1/models/" + library.SRAM)
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfoJSON
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Name != library.SRAM || len(info.Params) < 5 {
		t.Errorf("info = %+v", info)
	}
	// Eval endpoint: the Figure 2 LUT row.
	body := strings.NewReader(`{"model":"` + library.SRAM + `","params":{"words":4096,"bits":6,"vdd":1.5,"f":2e6}}`)
	resp, err = http.Post(ts.URL+"/api/v1/eval", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var est EstimateJSON
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if math.Abs(est.Power-684e-6) > 5e-6 {
		t.Errorf("remote LUT power = %v", est.Power)
	}
	if len(est.Dynamic) == 0 {
		t.Error("estimate should carry its EQ 1 terms")
	}
	// Errors: bad JSON, unknown model, bad params.
	for _, payload := range []string{
		"not json",
		`{"model":"ghost"}`,
		`{"model":"` + library.SRAM + `","params":{"words":-5}}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/eval", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("payload %q should fail", payload)
		}
	}
	// 404 for unknown model info.
	resp, _ = http.Get(ts.URL + "/api/v1/models/ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost info: %d", resp.StatusCode)
	}
}

// TestRemoteMount is E8: a library served in "Massachusetts" is mounted
// and used for estimates in "California" (two in-process sites).
func TestRemoteMount(t *testing.T) {
	_, tsEast, cEast := site(t, Config{SiteName: "MIT"})
	loginAs(t, tsEast, cEast, "characterizer", "")
	// The eastern site defines a site-local model.
	post(t, cEast, tsEast.URL+"/models/new", url.Values{
		"name": {"mit.dsp.butterfly"}, "class": {"computation"},
		"params": {"bits 16 1 64 int"},
		"csw":    {"bits * 420f"},
		"doc":    {"FFT butterfly characterized at MIT"},
	})

	// The western site mounts it.
	westReg := library.Standard()
	rc := &Remote{BaseURL: tsEast.URL}
	n, err := Mount(westReg, rc, "mit")
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Errorf("mounted %d models", n)
	}
	name := "mit.mit.dsp.butterfly"
	m, ok := westReg.Lookup(name)
	if !ok {
		t.Fatalf("mounted model missing; have %v", westReg.Names()[:5])
	}
	if m.Info().Doc != "FFT butterfly characterized at MIT" {
		t.Error("remote documentation lost")
	}
	// Evaluation round-trips over HTTP with full EQ 1 terms.
	est, err := westReg.Evaluate(name, model.Params{"bits": 16, "vdd": 1.5, "f": 2e6})
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * 420e-15 * 2.25 * 2e6
	if math.Abs(float64(est.Power())-want) > 1e-12 {
		t.Errorf("remote eval = %v, want %v", est.Power(), want)
	}
	// Local validation catches bad params before any network call.
	if _, err := westReg.Evaluate(name, model.Params{"bits": 9999}); err == nil {
		t.Error("mounted schema should validate locally")
	}
	// Remote errors propagate readably.
	if _, err := rc.Eval(context.Background(), "ghost", nil); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("remote error: %v", err)
	}
}

func TestRemoteMountWithPassword(t *testing.T) {
	_, tsEast, _ := site(t, Config{Password: "hub"})
	westReg := library.Standard()
	if _, err := Mount(westReg, &Remote{BaseURL: tsEast.URL}, "x"); err == nil {
		t.Error("mount without key should fail")
	}
	if _, err := Mount(library.Standard(), &Remote{BaseURL: tsEast.URL, Key: "hub"}, "x"); err != nil {
		t.Errorf("mount with key: %v", err)
	}
	if _, err := Mount(library.Standard(), &Remote{BaseURL: tsEast.URL, Key: "hub"}, ""); err == nil {
		t.Error("empty prefix should fail")
	}
}

func TestAPIEquationsExport(t *testing.T) {
	s, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/models/new", url.Values{
		"name": {"user.exported"}, "csw": {"2p"}, "class": {"computation"},
	})
	resp, err := http.Get(ts.URL + "/api/v1/equations")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	reg2 := model.NewRegistry()
	if n, err := library.LoadEquations(reg2, blob); err != nil || n != 1 {
		t.Errorf("export/import: n=%d err=%v (%s)", n, err, blob)
	}
	_ = s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
