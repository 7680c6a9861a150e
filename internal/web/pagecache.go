package web

// The sheet read path, served from caches.
//
// PowerPlay is a *shared* application: one design is viewed far more
// often than it is edited (every hyperlink back to the spreadsheet,
// every browser revisit, every collaborator following along is a GET).
// The seed implementation re-ran a full d.Evaluate() and re-rendered
// the template for every one of those GETs.  This file makes the read
// path O(cache hit) instead:
//
//  1. sheet.Result is memoized per design, on the account that owns
//     it (User.memo, keyed by design name), at the design's mutation
//     generation (sheet.Design.Generation — one atomic load) plus the
//     model registry's generation, so a sheet is evaluated once per
//     edit, not once per view;
//  2. the rendered page bytes (and their gzipped form) are cached in
//     the same entry, with a strong ETag derived from its key, so
//     repeat GETs are a map hit and a write — and a conditional GET
//     with a matching If-None-Match is a 304 with no body at all.
//
// Invalidation is generational — an entry is checked, not purged:
//
//   - Play, row edits, variable edits, agent/programmatic writes: every
//     tree mutator bumps the design generation (Play bumps even when no
//     cell changed — its contract is "recompute now");
//   - model-form edits and remote Mount/Refresh: both re-register
//     models, which bumps the registry generation, invalidating every
//     cached page on the site (a library edit changes any sheet that
//     prices through it);
//   - design re-installation under the same name: the entry pins the
//     *sheet.Design identity, and the ETag carries the process-unique
//     design ID, so a replaced design can never revalidate a stale
//     client copy.
//
// Deletion, the only way a design leaves an account, drops the name's
// entry, so the memo holds at most one entry per resident design and
// needs no cap: an entry's page is about 10 KB, next to the tens of KiB
// of plan and engine state every viewed design keeps anyway.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"powerplay/internal/core/sheet"
)

// readEntry memoizes one design's evaluation — and, once a GET has
// rendered it, the page bytes — at one (design identity, design
// generation, registry generation) snapshot.
type readEntry struct {
	design *sheet.Design
	gen    uint64
	regGen uint64
	res    *sheet.Result
	err    error
	page   *renderedPage // nil until the first GET renders it; guarded by User.memoMu
}

// live reports whether the entry still describes d's current state.
func (e *readEntry) live(d *sheet.Design, gen, regGen uint64) bool {
	return e != nil && e.design == d && e.gen == gen && e.regGen == regGen
}

// renderedPage is one immutable cached response body.
type renderedPage struct {
	etag string
	html []byte
	gz   []byte // gzipped html; nil when compression did not pay
}

// sheetETag is the strong validator for one snapshot of one design:
// process-unique design identity, design generation, registry
// generation.  Any mutation anywhere in that triple changes the tag.
func sheetETag(d *sheet.Design, gen, regGen uint64) string {
	return fmt.Sprintf("\"%x.%x.%x\"", d.ID(), gen, regGen)
}

// evalDesign evaluates a design through the read-path memo: a cache
// hit costs two atomic loads and a map lookup.  The caller must hold
// u's lock (read or write) so the tree — and its generation — cannot
// move under the evaluation.
//
// The miss path runs the design's incremental Play engine, so an edit
// invalidates the cached result but re-prices only the dirty cone the
// edit reaches.
func (s *Server) evalDesign(u *User, d *sheet.Design) (*sheet.Result, error) {
	gen, regGen := d.Generation(), s.registry.Generation()
	u.memoMu.Lock()
	if e := u.memo[d.Name]; e.live(d, gen, regGen) {
		u.memoMu.Unlock()
		pageCacheEvents.With("result_hit").Inc()
		return e.res, e.err
	}
	u.memoMu.Unlock()
	pageCacheEvents.With("result_miss").Inc()
	res, _, err := d.IncrementalEngine().Play()
	// regGen was read before evaluating: if a model edit lands mid-
	// evaluation the entry is stored under the older generation and the
	// next read misses — conservative, never stale.
	u.memoMu.Lock()
	if u.memo == nil {
		u.memo = make(map[string]*readEntry)
	}
	u.memo[d.Name] = &readEntry{design: d, gen: gen, regGen: regGen, res: res, err: err}
	u.memoMu.Unlock()
	return res, err
}

// renderedSheetFor returns the cached rendered page for one user's
// design, rendering (and caching) it on miss.  The evaluation feeding
// the render goes through the result memo, so a GET arriving after a
// Play reuses the Play's evaluation and pays only the render.
func (s *Server) renderedSheetFor(u *User, d *sheet.Design) *renderedPage {
	u.mu.RLock()
	defer u.mu.RUnlock()
	gen, regGen := d.Generation(), s.registry.Generation()
	u.memoMu.Lock()
	if e := u.memo[d.Name]; e.live(d, gen, regGen) && e.page != nil {
		page := e.page
		u.memoMu.Unlock()
		pageCacheEvents.With("page_hit").Inc()
		return page
	}
	u.memoMu.Unlock()
	pageCacheEvents.With("page_miss").Inc()
	res, msg := sheetView(s.evalDesign(u, d))
	// The build buffer does not escape, so it lives on the stack unless
	// the page outgrows it; the memo keeps a copy at the page's exact
	// length.
	page, _ := s.appendSheetPage(make([]byte, 0, sheetPageCap), d, res, msg)
	html := bytes.Clone(page)
	rp := &renderedPage{etag: sheetETag(d, gen, regGen), html: html}
	if gz := gzipBytes(html); len(gz) < len(html) {
		rp.gz = gz
	}
	u.memoMu.Lock()
	if e := u.memo[d.Name]; e.live(d, gen, regGen) {
		e.page = rp
	}
	u.memoMu.Unlock()
	return rp
}

// gzipBytes compresses a response body at BestSpeed, once at
// cache-fill time, so every compressed response afterwards is a plain
// write.  The writer comes from gzipWriters: a fresh one allocates
// about 1.2 MB of flate state, which every page miss would pay.
func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
	if _, err := zw.Write(b); err != nil {
		return nil
	}
	if err := zw.Close(); err != nil {
		return nil
	}
	return append([]byte(nil), buf.Bytes()...)
}

var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // BestSpeed is a valid level
	return zw
}}

// serveRendered writes a cached page with its cache-validation
// headers.  ETag and Vary go on every response — including the 304,
// per RFC 9110 — and the body is the pre-gzipped form when the client
// accepts it.
func serveRendered(w http.ResponseWriter, r *http.Request, rp *renderedPage) {
	h := w.Header()
	h.Set("ETag", rp.etag)
	h.Set("Vary", "Accept-Encoding")
	if etagMatch(r.Header.Get("If-None-Match"), rp.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "text/html; charset=utf-8")
	body := rp.html
	if rp.gz != nil && acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		body = rp.gz
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(body)
}

// etagMatch implements the If-None-Match rule: a comma-separated list
// of entity tags (or "*"), compared weakly — a W/ prefix on either
// side does not break the match.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		if strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}
