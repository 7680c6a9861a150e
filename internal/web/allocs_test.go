package web

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/vqsim"
)

// TestServedAllocBudgets pins the allocation count of one request on
// each served route, through Server.Handler() with a ResponseRecorder,
// so the whole middleware stack is counted.  Allocation counts are
// deterministic where throughput on a shared machine is not, so a
// change that makes a route allocate more fails here rather than
// hiding in benchmark noise.  Each budget is the measured count plus a
// little headroom; lower a budget when a change brings its count down.
// /metrics grows with the label sets the package's other tests have
// touched, so its count is measured with the whole package run.
func TestServedAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, h, cookie := allocSite(t)
	// The miss row bumps a sheet's generation before each GET, as an
	// edit does, so every GET re-evaluates, re-renders and re-gzips the
	// page.
	demo := s.users["demo"]
	missDesign := demo.Designs["Luminance_1"]

	serve := func(cookie *http.Cookie, method, target, body string, hdr ...string) (*httptest.ResponseRecorder, error) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		r := httptest.NewRequest(method, target, rd)
		if method == http.MethodPost && !strings.HasPrefix(target, "/api/") {
			r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			r.Header.Set(hdr[i], hdr[i+1])
		}
		if cookie != nil {
			r.AddCookie(cookie)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
			return rec, fmt.Errorf("%s %s: status %d", method, target, rec.Code)
		}
		// Play and row edits report a failed edit on the page, not in
		// the status.
		if bytes.Contains(rec.Body.Bytes(), []byte(`class="err"`)) {
			return rec, fmt.Errorf("%s %s: page reports an error", method, target)
		}
		return rec, nil
	}
	rec, err := serve(cookie, http.MethodGet, "/design/Luminance_2", "")
	if err != nil {
		t.Fatal(err)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("sheet page served without an ETag")
	}

	var nPlay, nRows int
	rows := [2]string{"action=Add&row=alloc_row&model=" + library.Register, "action=Remove&row=alloc_row"}
	eval := `{"model":"` + library.SRAM + `","params":{"words":4096,"bits":6,"vdd":1.5,"f":2e6}}`

	for _, row := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"sheet GET, page-cache hit", 50, func() error {
			_, err := serve(cookie, http.MethodGet, "/design/Luminance_2", "")
			return err
		}},
		{"sheet GET, 304", 48, func() error {
			rec, err := serve(cookie, http.MethodGet, "/design/Luminance_2", "", "If-None-Match", etag)
			if err == nil && rec.Code != http.StatusNotModified {
				return fmt.Errorf("conditional GET: status %d, want 304", rec.Code)
			}
			return err
		}},
		{"sheet GET, miss", 62, func() error {
			demo.mu.Lock()
			missDesign.Touch()
			demo.mu.Unlock()
			_, err := serve(cookie, http.MethodGet, "/design/Luminance_1", "")
			return err
		}},
		{"Play POST, two edits, InfoPad and Luminance_2 alternating", 170, func() error {
			nPlay++
			design, form := editPlay(nPlay)
			_, err := serve(cookie, http.MethodPost, "/design/"+design+"/play", form)
			return err
		}},
		{"rows POST, add and remove alternating", 440, func() error {
			_, err := serve(cookie, http.MethodPost, "/design/Luminance_2/rows", rows[nRows%2])
			nRows++
			return err
		}},
		{"200-step InfoPad vdd1 sweep", 80, func() error {
			_, err := serve(cookie, http.MethodGet, "/design/InfoPad/sweep?var=vdd1&from=1&to=3.3&steps=200", "")
			return err
		}},
		// vdd1 reaches no row (see ROADMAP), so the two sweeps below
		// price rows: Luminance_2's supply runs the cell and storage
		// sweep-form kernels, InfoPad's vdd3 the converter and
		// data-sheet ones.
		{"200-step Luminance_2 vdd sweep", 80, func() error {
			_, err := serve(cookie, http.MethodGet, "/design/Luminance_2/sweep?var=vdd&from=1&to=3.3&steps=200", "")
			return err
		}},
		{"200-step InfoPad vdd3 sweep", 80, func() error {
			_, err := serve(cookie, http.MethodGet, "/design/InfoPad/sweep?var=vdd3&from=3.3&to=6&steps=200", "")
			return err
		}},
		{"POST /api/v1/eval", 70, func() error {
			_, err := serve(nil, http.MethodPost, "/api/v1/eval", eval)
			return err
		}},
	} {
		var runErr error
		got := testing.AllocsPerRun(20, func() {
			if err := row.run(); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", row.name, runErr)
		}
		t.Logf("%s: %.0f allocs", row.name, got)
		if got > row.budget {
			t.Errorf("%s: %.0f allocs, budget %.0f", row.name, got, row.budget)
		}
	}

	// The exposition grows with every label set the process has
	// touched, which depends on which of the package's tests ran first,
	// so the /metrics budget is per exposition line.
	var lines int
	var runErr error
	got := testing.AllocsPerRun(20, func() {
		rec, err := serve(nil, http.MethodGet, "/metrics", "")
		if err != nil && runErr == nil {
			runErr = err
		}
		lines = strings.Count(rec.Body.String(), "\n")
	})
	if runErr != nil {
		t.Fatalf("GET /metrics: %v", runErr)
	}
	t.Logf("GET /metrics: %.0f allocs for %d lines", got, lines)
	if budget := metricsAllocsPerLine * float64(lines); got > budget {
		t.Errorf("GET /metrics: %.0f allocs for %d lines, budget %.0f", got, lines, budget)
	}
}

// metricsAllocsPerLine budgets one /metrics scrape: measured at 0.28
// allocations per exposition line (258 for 922 lines); the labeled
// children's label strings are most of them.
const metricsAllocsPerLine = 0.4

// viewedSheetHeapKiB budgets the live heap one viewed sheet adds:
// measured at 37.4 KiB (60.9 KiB while every plan row built its own
// copy of its model's schema).
const viewedSheetHeapKiB = 42.0

// editPlay is the i'th Play of the edit-play loop: two cells set to the
// other of two values, alternating between the InfoPad and Luminance_2
// sheets, so every Play has a dirty cone.  It returns the design and
// the form body.
func editPlay(i int) (design, form string) {
	plays := [2][2]string{
		{"glob_vdd1=1.2&row_display_lcds%7Cpnom=0.4", "glob_vdd1=1.5&row_display_lcds%7Cpnom=0.5"},
		{"glob_vdd=1.1&row_read_bank%7Cwords=1024", "glob_vdd=1.5&row_read_bank%7Cwords=2048"},
	}
	d := i % 2
	return [2]string{"InfoPad", "Luminance_2"}[d], plays[d][(i/2)%2]
}

// allocSite builds a site holding the three seeded sheets for user
// demo and returns it with its handler and a session cookie.
func allocSite(t testing.TB) (*Server, http.Handler, *http.Cookie) {
	t.Helper()
	s, err := NewServer(Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	return s, h, seedUser(t, s, h, "demo")
}

// seededSheets are the names of the designs seedUser installs.
var seededSheets = [...]string{"Luminance_1", "Luminance_2", "InfoPad"}

// seedUser installs the three seeded sheets for user and logs them in,
// returning the session cookie.
func seedUser(t testing.TB, s *Server, h http.Handler, user string) *http.Cookie {
	t.Helper()
	reg := s.Registry()
	for _, build := range []func(*model.Registry) (*sheet.Design, error){vqsim.Luminance1, vqsim.Luminance2, infopad.Build} {
		d, err := build(reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InstallDesign(user, d); err != nil {
			t.Fatal(err)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/login", strings.NewReader("user="+user))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	for _, c := range rec.Result().Cookies() {
		if c.Name == sessionCookie {
			return c
		}
	}
	t.Fatalf("login as %s set no session cookie: %d", user, rec.Code)
	return nil
}

// TestViewedSheetHeapBudget pins the heap a viewed sheet keeps live —
// its retained plan and its cached page — as browse does across many
// users' sheets.  It views the three seeded sheets of 32 users once
// each, gzip accepted, and measures HeapAlloc after a collection before
// and after the views.  The budget is the measured value plus a little
// headroom; lower it when a change brings the heap down.
func TestViewedSheetHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	s, err := NewServer(Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cookies := make([]*http.Cookie, 32)
	for i := range cookies {
		cookies[i] = seedUser(t, s, h, fmt.Sprintf("viewer%02d", i))
	}
	// Two collections: the first moves sync.Pool contents (gzip
	// writers, render buffers) to the victim cache, the second frees
	// them, so pooled scratch does not count as a sheet's heap.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for _, c := range cookies {
		for _, name := range seededSheets {
			r := httptest.NewRequest(http.MethodGet, "/design/"+name, nil)
			r.Header.Set("Accept-Encoding", "gzip")
			r.AddCookie(c)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /design/%s: status %d", name, rec.Code)
			}
		}
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	views := len(cookies) * len(seededSheets)
	perSheet := (float64(after) - float64(before)) / float64(views) / 1024
	t.Logf("%.1f KiB live heap per viewed sheet over %d sheets", perSheet, views)
	if perSheet > viewedSheetHeapKiB {
		t.Errorf("%.1f KiB live heap per viewed sheet, budget %.0f KiB", perSheet, viewedSheetHeapKiB)
	}
}
