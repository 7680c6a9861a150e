package web

import (
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"powerplay/internal/library"
)

func TestDesignExportImportRoundTrip(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "alice", "")
	// Build a small design through the normal flow.
	post(t, c, ts.URL+"/designs", url.Values{"name": {"orig"}})
	post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"2048"}, "p_bits": {"8"},
		"action": {"Add to design"}, "design": {"orig"}, "row": {"bank"},
	})
	// Export it.
	code, blob := fetch(t, c, ts.URL+"/design/orig/export")
	if code != 200 || !strings.Contains(blob, `"bank"`) {
		t.Fatalf("export: %d %s", code, blob)
	}
	// Import under a new name.
	code, _ = post(t, c, ts.URL+"/designs/import", url.Values{
		"design": {blob}, "name": {"copy"},
	})
	if code != 200 {
		t.Fatalf("import: %d", code)
	}
	code, body := fetch(t, c, ts.URL+"/design/copy")
	if code != 200 || !strings.Contains(body, "bank") {
		t.Fatalf("imported design missing: %d", code)
	}
	// Name collision refused.
	resp, err := c.PostForm(ts.URL+"/designs/import", url.Values{
		"design": {blob}, "name": {"copy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("collision: %d", resp.StatusCode)
	}
	// Garbage payloads rejected.
	for _, payload := range []string{"", "not json", `{"name":"x!","root":{"name":"x!"}}`} {
		resp, err := c.PostForm(ts.URL+"/designs/import", url.Values{"design": {payload}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusSeeOther {
			t.Errorf("payload %q accepted", payload)
		}
	}
}

func TestDesignCSV(t *testing.T) {
	_, ts, c := site(t, Config{})
	loginAs(t, ts, c, "bob", "")
	post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts.URL+"/cell/"+library.RippleAdder, url.Values{
		"p_bits": {"16"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"adder"},
	})
	code, body := fetch(t, c, ts.URL+"/design/d/csv")
	if code != 200 {
		t.Fatalf("csv: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 { // header, adder, total
		t.Fatalf("csv lines = %d: %s", len(lines), body)
	}
	if !strings.HasPrefix(lines[0], "path,model,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "adder") || !strings.Contains(lines[1], library.RippleAdder) {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "TOTAL") {
		t.Errorf("total = %q", lines[2])
	}
	// A sheet that cannot evaluate reports instead of crashing.
	post(t, c, ts.URL+"/design/d/rows", url.Values{
		"action": {"Add"}, "row": {"ghost"}, "model": {"no.model"},
	})
	resp, err := c.Get(ts.URL + "/design/d/csv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken sheet csv: %d", resp.StatusCode)
	}
	// Unknown design.
	resp, _ = c.Get(ts.URL + "/design/nope/csv")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing design: %d", resp.StatusCode)
	}
}

// TestDesignCSVConcurrentWithEdits overlaps CSV exports with row adds
// and removes through the real HTTP stack: the records read the live
// tree's paths and bindings, so they must be built under the user's
// read lock (run under -race via make race).
func TestDesignCSVConcurrentWithEdits(t *testing.T) {
	_, ts, c := sweepSite(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := c.Get(ts.URL + "/design/d/csv")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("concurrent csv: %d", resp.StatusCode)
				}
			}
		}()
		wg.Add(1)
		go func(row string) {
			defer wg.Done()
			for _, action := range []string{"Add", "Remove", "Add", "Remove"} {
				resp, err := c.PostForm(ts.URL+"/design/d/rows", url.Values{
					"action": {action}, "row": {row}, "model": {library.SRAM},
				})
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}("tmp" + string(rune('a'+i)))
	}
	wg.Wait()
}
