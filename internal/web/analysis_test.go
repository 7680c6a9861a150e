package web

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"powerplay/internal/library"
)

func TestAnalysisPage(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"4096"}, "p_bits": {"6"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"lut"},
	})
	post(t, c, ts.URL+"/cell/"+library.Register, url.Values{
		"p_bits": {"6"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"reg"},
	})
	code, body := fetch(t, c, ts.URL+"/design/d/analysis")
	if code != 200 {
		t.Fatalf("analysis: %d", code)
	}
	for _, want := range []string{
		"Major power consumers", "lut", "reg",
		"diminishing returns", "Timing at 1MHz", "Back to the spreadsheet",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("analysis missing %q", want)
		}
	}
	// The LUT dominates, so the diminishing-returns line names it alone.
	if !strings.Contains(body, "<b>lut</b>") {
		t.Errorf("diminishing returns should single out the LUT: %s", grep(body, "diminishing"))
	}
	// Sheet page links to the analysis.
	_, sheetBody := fetch(t, c, ts.URL+"/design/d")
	if !strings.Contains(sheetBody, "/design/d/analysis") {
		t.Error("sheet should link to analysis")
	}
	// Broken sheets report cleanly.
	post(t, c, ts.URL+"/design/d/rows", url.Values{
		"action": {"Add"}, "row": {"ghost"}, "model": {"no.model"},
	})
	resp, err := c.Get(ts.URL + "/design/d/analysis")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken sheet: %d", resp.StatusCode)
	}
	// Unknown design 404s.
	resp, _ = c.Get(ts.URL + "/design/none/analysis")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing design: %d", resp.StatusCode)
	}
}

// TestAnalysisReusesSheetEvaluation: the analysis page reads the same
// evaluation memo as the sheet page, so an analysis right after a sheet
// view is a result hit and compiles no plan.
func TestAnalysisReusesSheetEvaluation(t *testing.T) {
	_, base, c := sheetSite(t)
	if code, _ := fetch(t, c, base+"/design/d"); code != 200 {
		t.Fatalf("sheet: %d", code)
	}
	before, _ := scrape(t, base)
	if code, _ := fetch(t, c, base+"/design/d/analysis"); code != 200 {
		t.Fatalf("analysis: %d", code)
	}
	after, _ := scrape(t, base)
	delta := func(name string) float64 { return after[name] - before[name] }
	if d := delta(`powerplay_pagecache_events_total{event="result_hit"}`); d != 1 {
		t.Errorf("analysis result hits = %v, want 1", d)
	}
	if d := delta(`powerplay_pagecache_events_total{event="result_miss"}`); d != 0 {
		t.Errorf("analysis result misses = %v, want 0", d)
	}
	if d := delta(`powerplay_sheet_plan_compiles_total{result="ok"}`); d != 0 {
		t.Errorf("analysis compiled %v plans, want 0", d)
	}
}

func TestModelEditPage(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/models/new", url.Values{
		"name": {"user.editable"}, "class": {"computation"},
		"params": {"bits 8 1 64 int"},
		"csw":    {"bits*99f"},
		"doc":    {"editable model"},
	})
	code, body := fetch(t, c, ts.URL+"/models/edit/user.editable")
	if code != 200 {
		t.Fatalf("edit page: %d", code)
	}
	for _, want := range []string{`value="user.editable"`, "bits*99f", "bits 8 1 64 int", "editable model"} {
		if !strings.Contains(body, want) {
			t.Errorf("edit form missing %q", want)
		}
	}
	// Re-post with a changed equation: edit in place.
	code, _ = post(t, c, ts.URL+"/models/new", url.Values{
		"name": {"user.editable"}, "class": {"computation"},
		"params": {"bits 8 1 64 int"},
		"csw":    {"bits*120f"},
	})
	if code != 200 {
		t.Fatalf("edit post: %d", code)
	}
	code, body = post(t, c, ts.URL+"/cell/user.editable", url.Values{
		"p_bits": {"1"}, "p_vdd": {"1"}, "p_f": {"1"}, "action": {"Calculate"},
	})
	if code != 200 || !strings.Contains(body, "120fF") {
		t.Errorf("edited model should price with the new coefficient: %s", grep(body, "fF"))
	}
	// Built-ins are not editable.
	resp, err := c.Get(ts.URL + "/models/edit/" + library.SRAM)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("built-in edit: %d", resp.StatusCode)
	}
	// Unknown model 404s.
	resp, _ = c.Get(ts.URL + "/models/edit/ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost edit: %d", resp.StatusCode)
	}
}
