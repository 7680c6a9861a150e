package web

import (
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/library"
)

// getWith fetches a URL with extra request headers and returns the
// response (caller reads/closes the body via the returned string).
func getWith(t *testing.T, c *http.Client, url string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// sheetSite builds a site with one design "d" for user "u" containing
// an SRAM row, logged in through the real HTTP stack.
func sheetSite(t *testing.T) (*Server, string, *http.Client) {
	t.Helper()
	s, ts, c := site(t, Config{})
	loginAs(t, ts, c, "u", "")
	post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
		"p_words": {"1024"}, "p_bits": {"8"},
		"action": {"Add to design"}, "design": {"d"}, "row": {"mem"},
	})
	return s, ts.URL, c
}

// TestSheetConditionalGet: the sheet page carries a strong ETag and
// Vary: Accept-Encoding; a matching If-None-Match revalidates to a
// bodiless 304; a gzip-accepting client gets the cached compressed
// bytes, identical after decompression.
func TestSheetConditionalGet(t *testing.T) {
	_, base, c := sheetSite(t)
	u := base + "/design/d"

	resp, body := getWith(t, c, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("GET: %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, "\"") {
		t.Fatalf("missing or weak ETag: %q", etag)
	}
	if v := resp.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Errorf("Vary = %q, want Accept-Encoding", v)
	}
	if !strings.Contains(body, "mem") {
		t.Fatalf("page lacks the design row:\n%s", body[:min(len(body), 200)])
	}

	// Conditional revalidation: 304, no body, validator headers intact.
	resp304, body304 := getWith(t, c, u, map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match %q: %d, want 304", etag, resp304.StatusCode)
	}
	if body304 != "" {
		t.Errorf("304 carried a body (%d bytes)", len(body304))
	}
	if got := resp304.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	if v := resp304.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Errorf("304 Vary = %q", v)
	}
	// A list of candidates (and weak comparison) also matches.
	if resp, _ := getWith(t, c, u, map[string]string{"If-None-Match": "\"zzz\", W/" + etag}); resp.StatusCode != 304 {
		t.Errorf("list If-None-Match: %d, want 304", resp.StatusCode)
	}
	// A stale validator re-downloads.
	if resp, _ := getWith(t, c, u, map[string]string{"If-None-Match": "\"zzz\""}); resp.StatusCode != 200 {
		t.Errorf("stale If-None-Match: %d, want 200", resp.StatusCode)
	}

	// Compressed form.  Setting Accept-Encoding explicitly turns off the
	// transport's transparent gunzip, so the body arrives as stored.
	gzResp, raw := getWith(t, c, u, map[string]string{"Accept-Encoding": "gzip"})
	if enc := gzResp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	if v := gzResp.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Errorf("gzip Vary = %q", v)
	}
	zr, err := gzip.NewReader(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != body {
		t.Error("gzipped body does not decompress to the plain body")
	}
	// A client that refuses gzip outright gets identity bytes.
	idResp, idBody := getWith(t, c, u, map[string]string{"Accept-Encoding": "gzip;q=0"})
	if enc := idResp.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("q=0 client got Content-Encoding %q", enc)
	}
	if idBody != body {
		t.Error("identity body differs from the first fetch")
	}
}

// TestSheetCacheInvalidationPlay: a Play retires the cached page and
// its ETag — including an editless Play, whose contract is "recompute
// now".
func TestSheetCacheInvalidationPlay(t *testing.T) {
	_, base, c := sheetSite(t)
	u := base + "/design/d"
	resp, _ := getWith(t, c, u, nil)
	etag1 := resp.Header.Get("ETag")

	// An edit through Play: new ETag, new content, old validator stale.
	post(t, c, base+"/design/d/play", url.Values{"glob_vdd": {"2.5"}})
	resp2, body2 := getWith(t, c, u, map[string]string{"If-None-Match": etag1})
	if resp2.StatusCode != 200 {
		t.Fatalf("after Play, old validator still matches (got %d)", resp2.StatusCode)
	}
	etag2 := resp2.Header.Get("ETag")
	if etag2 == etag1 {
		t.Error("Play did not change the ETag")
	}
	if !strings.Contains(body2, "2.5") {
		t.Error("page does not show the edited value")
	}

	// An editless Play still advances the validator (a mounted remote
	// model may answer differently on the recompute).
	post(t, c, base+"/design/d/play", url.Values{})
	resp3, _ := getWith(t, c, u, nil)
	if resp3.Header.Get("ETag") == etag2 {
		t.Error("editless Play did not change the ETag")
	}
}

// TestSheetCacheInvalidationModelEdit: re-registering a model (the
// model form's edit path) bumps the registry generation and retires
// every cached sheet that prices through the library.
func TestSheetCacheInvalidationModelEdit(t *testing.T) {
	s, base, c := sheetSite(t)
	// The design gains a row priced by a user-defined equation model.
	post(t, c, base+"/models/new", url.Values{
		"name": {"user.blk"}, "class": {"computation"}, "csw": {"1p"},
	})
	post(t, c, base+"/design/d/rows", url.Values{
		"action": {"Add"}, "row": {"blk"}, "model": {"user.blk"},
	})
	resp, body1 := getWith(t, c, base+"/design/d", nil)
	etag1 := resp.Header.Get("ETag")
	genBefore := s.Registry().Generation()

	// Editing the model through the form re-registers it.
	post(t, c, base+"/models/new", url.Values{
		"name": {"user.blk"}, "class": {"computation"}, "csw": {"2p"},
	})
	if s.Registry().Generation() == genBefore {
		t.Fatal("registry generation did not advance")
	}
	resp2, body2 := getWith(t, c, base+"/design/d", map[string]string{"If-None-Match": etag1})
	if resp2.StatusCode != 200 {
		t.Fatalf("model edit: stale 304 served (etag %q)", etag1)
	}
	if resp2.Header.Get("ETag") == etag1 {
		t.Error("model edit did not change the ETag")
	}
	if body1 == body2 {
		t.Error("model edit did not change the rendered sheet")
	}
}

// TestSheetCacheInvalidationRefresh: a consumer site shows memoized
// estimates from a mounted library; after the publisher changes a
// model, Refresh re-syncs the mount and the next GET re-prices — no
// stale sheet is served past the refresh.
func TestSheetCacheInvalidationRefresh(t *testing.T) {
	_, tsEast, cEast := site(t, Config{SiteName: "east"})
	loginAs(t, tsEast, cEast, "pub", "")
	post(t, cEast, tsEast.URL+"/models/new", url.Values{
		"name": {"dsp.blk"}, "class": {"computation"}, "csw": {"1p"},
	})

	west, tsWest, cWest := site(t, Config{SiteName: "west"})
	rc := &Remote{BaseURL: tsEast.URL, Retry: fastRetry()}
	if _, err := Mount(west.Registry(), rc, "east"); err != nil {
		t.Fatal(err)
	}
	loginAs(t, tsWest, cWest, "u", "")
	post(t, cWest, tsWest.URL+"/designs", url.Values{"name": {"d"}})
	post(t, cWest, tsWest.URL+"/design/d/rows", url.Values{
		"action": {"Add"}, "row": {"blk"}, "model": {"east.dsp.blk"},
	})
	resp, body1 := getWith(t, cWest, tsWest.URL+"/design/d", nil)
	etag1 := resp.Header.Get("ETag")

	// The publisher re-characterizes; the consumer's memo still serves
	// the old page until a Refresh re-syncs the mount.
	post(t, cEast, tsEast.URL+"/models/new", url.Values{
		"name": {"dsp.blk"}, "class": {"computation"}, "csw": {"4p"},
	})
	if respSame, _ := getWith(t, cWest, tsWest.URL+"/design/d", map[string]string{"If-None-Match": etag1}); respSame.StatusCode != 304 {
		t.Fatalf("pre-refresh GET should revalidate (got %d)", respSame.StatusCode)
	}
	if _, err := Refresh(context.Background(), west.Registry(), rc, "east"); err != nil {
		t.Fatal(err)
	}
	resp2, body2 := getWith(t, cWest, tsWest.URL+"/design/d", map[string]string{"If-None-Match": etag1})
	if resp2.StatusCode != 200 {
		t.Fatalf("post-refresh GET served stale 304")
	}
	if resp2.Header.Get("ETag") == etag1 {
		t.Error("refresh did not change the ETag")
	}
	if body1 == body2 {
		t.Error("refresh did not change the rendered estimates")
	}
}

// TestSheetEvaluatedOncePerEdit pins the memoization contract itself:
// N GETs of an unchanged sheet cost one model evaluation; a Play that
// edits a cell feeding the row costs exactly one more; and an editless
// Play of a pure (non-volatile) sheet costs no model evaluation at all
// — the incremental engine proves nothing is dirty and serves the
// retained result (the Play still retires the cached page and its
// ETag, which is Play's actual observable contract).
func TestSheetEvaluatedOncePerEdit(t *testing.T) {
	s, ts, c := site(t, Config{})
	var evals atomic.Int64
	s.Registry().MustRegister(&model.Func{
		Meta: model.Info{Name: "bench.count", Title: "counting", Class: model.Computation},
		Fn: func(p model.Params) (*model.Estimate, error) {
			evals.Add(1)
			return &model.Estimate{}, nil
		},
	})
	d := sheet.NewDesign("d", s.Registry())
	// The counting row inherits vdd from scope, giving the edit below a
	// cell whose dirty cone reaches the model.
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.MustAddChild("x", "bench.count")
	if err := s.InstallDesign("u", d); err != nil {
		t.Fatal(err)
	}
	loginAs(t, ts, c, "u", "")
	for i := 0; i < 5; i++ {
		if code, _ := fetch(t, c, ts.URL+"/design/d"); code != 200 {
			t.Fatalf("GET %d failed", i)
		}
	}
	if got := evals.Load(); got != 1 {
		t.Fatalf("5 GETs cost %d evaluations, want 1", got)
	}
	post(t, c, ts.URL+"/design/d/play", url.Values{})
	if got := evals.Load(); got != 1 {
		t.Fatalf("editless Play of a pure sheet re-evaluated the model (got %d evals, want 1)", got)
	}
	post(t, c, ts.URL+"/design/d/play", url.Values{"glob_vdd": {"1.6"}})
	if got := evals.Load(); got != 2 {
		t.Fatalf("Play with a vdd edit should re-evaluate once (got %d)", got)
	}
	for i := 0; i < 3; i++ {
		fetch(t, c, ts.URL+"/design/d")
	}
	if got := evals.Load(); got != 2 {
		t.Fatalf("post-Play GETs re-evaluated (%d)", got)
	}
	// The CSV export rides the same memo.
	fetch(t, c, ts.URL+"/design/d/csv")
	if got := evals.Load(); got != 2 {
		t.Fatalf("CSV export re-evaluated (%d)", got)
	}
}

// TestSheetCacheConcurrentTraffic hammers the read path with mixed
// GET/conditional-GET/Play traffic for two users while a third thread
// edits the library — the -race regression for the sharded-lock,
// generation-keyed serving path.
func TestSheetCacheConcurrentTraffic(t *testing.T) {
	s, ts, _ := site(t, Config{})
	users := []string{"alice", "bob"}
	clients := make(map[string]*http.Client)
	for _, name := range users {
		jar, _ := cookiejar.New(nil)
		c := &http.Client{Jar: jar}
		loginAs(t, ts, c, name, "")
		post(t, c, ts.URL+"/designs", url.Values{"name": {"d"}})
		post(t, c, ts.URL+"/cell/"+library.SRAM, url.Values{
			"p_words": {"512"}, "p_bits": {"8"},
			"action": {"Add to design"}, "design": {"d"}, "row": {"mem"},
		})
		clients[name] = c
	}
	const iters = 20
	var wg sync.WaitGroup
	for _, name := range users {
		c := clients[name]
		// Readers: plain and conditional GETs.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				etag := ""
				for i := 0; i < iters; i++ {
					resp, _ := getWith(t, c, ts.URL+"/design/d", map[string]string{"If-None-Match": etag})
					if resp.StatusCode != 200 && resp.StatusCode != 304 {
						t.Errorf("GET: %d", resp.StatusCode)
						return
					}
					if e := resp.Header.Get("ETag"); e != "" {
						etag = e
					}
				}
			}()
		}
		// Writer: Plays alternating an edit.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vdd := "1.5"
				if i%2 == 1 {
					vdd = "1.8"
				}
				post(t, c, ts.URL+"/design/d/play", url.Values{"glob_vdd": {vdd}})
			}
		}()
	}
	// Library editor: registry generation churn under the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Registry().MustRegister(&model.Func{
				Meta: model.Info{Name: "churn.m", Title: "churn", Class: model.Computation},
				Fn:   func(p model.Params) (*model.Estimate, error) { return &model.Estimate{}, nil },
			})
		}
	}()
	wg.Wait()
}

// TestReadCacheBounded: the per-(user, design) caches evict LRU at the
// configured cap instead of growing with every design ever served.
func TestReadCacheBounded(t *testing.T) {
	s, err := NewServer(Config{CacheEntries: 3}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		d := sheet.NewDesign(name, s.Registry())
		if err := s.InstallDesign("u", d); err != nil {
			t.Fatal(err)
		}
		u := s.users["u"]
		u.mu.RLock()
		if _, err := s.evalDesign("u", d); err != nil {
			t.Fatal(err)
		}
		s.sweepCacheFor("u", d)
		u.mu.RUnlock()
	}
	s.cacheMu.Lock()
	if n := s.readCaches.len(); n != 3 {
		t.Errorf("readCaches holds %d entries, want cap 3", n)
	}
	// The oldest design aged out; the newest is still live.
	if _, ok := s.readCaches.get("u/a"); ok {
		t.Error("LRU kept the oldest entry")
	}
	if _, ok := s.readCaches.get("u/e"); !ok {
		t.Error("LRU dropped the newest entry")
	}
	s.cacheMu.Unlock()
	s.sweepMu.Lock()
	if n := s.sweepCaches.len(); n != 3 {
		t.Errorf("sweepCaches holds %d entries, want cap 3", n)
	}
	s.sweepMu.Unlock()
}

// TestLRUCache unit-tests the eviction order, including get-refreshes.
func TestLRUCache(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	c.get("a") // refresh a: b is now coldest
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.get(k); !ok || v != want {
			t.Errorf("get(%q) = %d, %v", k, v, ok)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	c.put("a", 9) // replace keeps size
	if v, _ := c.get("a"); v != 9 || c.len() != 2 {
		t.Errorf("replace: a=%d len=%d", v, c.len())
	}
}
