package shard_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/vqsim"
)

// TestRouterAllocBudgets pins the allocation count of one routed
// request, through Router.Handler() with a ResponseRecorder and one
// loopback backend, in the style of web's TestServedAllocBudgets.  The
// count covers the whole process — the router, its transport, and the
// backend serving the request — so a change that makes the hop
// allocate more fails here rather than hiding in benchmark noise.
// Each budget is the measured count plus a little headroom; lower a
// budget when a change brings its count down.
func TestRouterAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f := newFleet(t, 1, nil)
	for _, build := range []func(*model.Registry) (*sheet.Design, error){vqsim.Luminance2, infopad.Build} {
		d, err := build(f.servers[0].Registry())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.servers[0].InstallDesign("demo", d); err != nil {
			t.Fatal(err)
		}
	}
	h := f.router.Handler()
	var cookies []*http.Cookie
	serve := func(method, target, body string) error {
		r := httptest.NewRequest(method, target, strings.NewReader(body))
		if method == http.MethodPost {
			r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		for _, c := range cookies {
			r.AddCookie(c)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", method, target, rec.Code)
		}
		if bytes.Contains(rec.Body.Bytes(), []byte(`class="err"`)) {
			return fmt.Errorf("%s %s: page reports an error", method, target)
		}
		return nil
	}
	r := httptest.NewRequest(http.MethodPost, "/login", strings.NewReader("user=demo"))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if cookies = rec.Result().Cookies(); len(cookies) == 0 {
		t.Fatalf("routed login set no cookies: %d", rec.Code)
	}
	// Warm the page cache and the keep-alive connection.
	if err := serve(http.MethodGet, "/design/Luminance_2", ""); err != nil {
		t.Fatal(err)
	}

	// Each Play sets two cells to the other of two values, alternating
	// between two sheets, so every Play has a dirty cone.
	plays := [2][2]string{
		{"glob_vdd1=1.2&row_display_lcds%7Cpnom=0.4", "glob_vdd1=1.5&row_display_lcds%7Cpnom=0.5"},
		{"glob_vdd=1.1&row_read_bank%7Cwords=1024", "glob_vdd=1.5&row_read_bank%7Cwords=2048"},
	}
	playDesigns := [2]string{"InfoPad", "Luminance_2"}
	var nPlay int
	for _, row := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"routed sheet GET, page-cache hit", 215, func() error {
			return serve(http.MethodGet, "/design/Luminance_2", "")
		}},
		{"routed Play POST, two edits, InfoPad and Luminance_2 alternating", 330, func() error {
			nPlay++
			d := nPlay % 2
			return serve(http.MethodPost, "/design/"+playDesigns[d]+"/play", plays[d][(nPlay/2)%2])
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
}
