package web

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"

	"powerplay/internal/library"
	"powerplay/internal/vqsim"
)

// Serve benchmarks: the X20 read-path numbers.  The subject is the
// whole HTTP stack — session lookup, the generation-keyed result memo
// and page cache, conditional requests — measured over the Figure 2
// luminance sheet.  BenchmarkServeSheetUncached* is the deliberate
// baseline (uncachedSheetHandler), re-evaluating and re-rendering every
// GET the way the server worked before the cache existed; the
// cached/uncached ratio at 16 clients is X20's acceptance number.
//
// CI runs these with -benchtime=50x as a smoke test.

// newBenchSite stands up a site with the Figure 2 luminance design
// under user "bench" and returns the sheet URL plus a logged-in client
// factory.  With uncached set, sheet GETs go to uncachedSheetHandler
// instead of the site's cached read path.
func newBenchSite(b *testing.B, cfg Config, uncached bool) (string, func() *http.Client) {
	b.Helper()
	s, err := NewServer(cfg, library.Standard())
	if err != nil {
		b.Fatal(err)
	}
	d, err := vqsim.Luminance1(s.Registry())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.InstallDesign("bench", d); err != nil {
		b.Fatal(err)
	}
	var h http.Handler = s.Handler()
	if uncached {
		mux := http.NewServeMux()
		mux.Handle("GET /design/{name}", uncachedSheetHandler(s))
		mux.Handle("/", h)
		h = mux
	}
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)
	sheetURL := ts.URL + "/design/" + url.PathEscape(d.Name)
	newClient := func() *http.Client {
		jar, _ := cookiejar.New(nil)
		c := &http.Client{Jar: jar}
		resp, err := c.PostForm(ts.URL+"/login", url.Values{"user": {"bench"}})
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return c
	}
	return sheetURL, newClient
}

// uncachedSheetHandler is the X20 baseline: the sheet GET as served
// before the read-path caches existed — evaluate and render on every
// request, under the user's read lock, with no validators — behind the
// same middleware stack Server.Handler puts around every route.
func uncachedSheetHandler(s *Server) http.Handler {
	const pattern = "GET /design/{name}"
	var h http.Handler = instrument(pattern, s.auth(func(w http.ResponseWriter, r *http.Request, u *User) {
		d, ok := s.design(u, r.PathValue("name"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		u.mu.RLock()
		res, err := d.Evaluate()
		page := s.buildSheetPage(d, res, err)
		u.mu.RUnlock()
		s.render(w, "sheet", page)
	}))
	h = timeoutMiddleware(h, s.requestTimeout())
	h = limitBodyMiddleware(h, s.maxBodyBytes())
	return recoverMiddleware(requestIDMiddleware(h))
}

func benchGet(b *testing.B, c *http.Client, url string) {
	resp, err := c.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeSheetCached: repeated GETs of an unchanged sheet, one
// client — the hot path the tentpole optimizes.
func BenchmarkServeSheetCached(b *testing.B) {
	url, newClient := newBenchSite(b, Config{}, false)
	c := newClient()
	benchGet(b, c, url) // warm the cache outside the timing loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, c, url)
	}
}

// BenchmarkServeSheetUncached: the same traffic against the
// evaluate-and-render-per-request baseline.
func BenchmarkServeSheetUncached(b *testing.B) {
	url, newClient := newBenchSite(b, Config{}, true)
	c := newClient()
	benchGet(b, c, url)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, c, url)
	}
}

// BenchmarkServeSheetConditional: revalidation traffic — every request
// carries the current validator and is answered 304 with no body.
func BenchmarkServeSheetConditional(b *testing.B) {
	u, newClient := newBenchSite(b, Config{}, false)
	c := newClient()
	resp, err := c.Get(u)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		b.Fatal("no ETag to revalidate against")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := http.NewRequest("GET", u, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err := c.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			b.Fatalf("status %d, want 304", resp.StatusCode)
		}
	}
}

// parallel16 runs body on at least 16 concurrent goroutines
// (SetParallelism multiplies GOMAXPROCS, so 16 is a floor).
func parallel16(b *testing.B, body func(pb *testing.PB)) {
	b.SetParallelism(16)
	b.RunParallel(body)
}

// BenchmarkServeSheetCached16: 16 concurrent clients hammering GETs —
// the acceptance configuration.
func BenchmarkServeSheetCached16(b *testing.B) {
	url, newClient := newBenchSite(b, Config{}, false)
	c := newClient()
	benchGet(b, c, url)
	b.ReportAllocs()
	b.ResetTimer()
	parallel16(b, func(pb *testing.PB) {
		for pb.Next() {
			benchGet(b, c, url)
		}
	})
}

// BenchmarkServeSheetUncached16: the 16-client baseline.
func BenchmarkServeSheetUncached16(b *testing.B) {
	url, newClient := newBenchSite(b, Config{}, true)
	c := newClient()
	benchGet(b, c, url)
	b.ReportAllocs()
	b.ResetTimer()
	parallel16(b, func(pb *testing.PB) {
		for pb.Next() {
			benchGet(b, c, url)
		}
	})
}

// BenchmarkServeMixed16: mostly reads with one Play per 16 requests —
// the cache keeps paying as long as edits are rarer than views.
func BenchmarkServeMixed16(b *testing.B) {
	u, newClient := newBenchSite(b, Config{}, false)
	c := newClient()
	benchGet(b, c, u)
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	parallel16(b, func(pb *testing.PB) {
		for pb.Next() {
			if n.Add(1)%16 == 0 {
				resp, err := c.PostForm(u+"/play", url.Values{"glob_vdd": {"1.5"}})
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			} else {
				benchGet(b, c, u)
			}
		}
	})
}
