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
//  1. sheet.Result is memoized per (user, design), keyed by the
//     design's mutation generation (sheet.Design.Generation — one
//     atomic load) plus the model registry's generation, so a sheet is
//     evaluated once per edit, not once per view;
//  2. the rendered page bytes (and their gzipped form) are cached
//     behind the same key, with a strong ETag derived from it, so
//     repeat GETs are a map hit and a write — and a conditional GET
//     with a matching If-None-Match is a 304 with no body at all.
//
// Invalidation is entirely generational — there are no explicit purge
// calls to forget:
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
// Entries live in a bounded LRU (Config.CacheEntries), so deleted
// users and retired designs age out instead of leaking.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"net/http"
	"strconv"
	"strings"

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
	page   *renderedPage // nil until the first GET renders it; guarded by cacheMu
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
// the owning user's lock (read or write) so the tree — and its
// generation — cannot move under the evaluation.
//
// The miss path runs the design's incremental Play engine, so an edit
// invalidates the cached result but re-prices only the dirty cone the
// edit reaches.
func (s *Server) evalDesign(userName string, d *sheet.Design) (*sheet.Result, error) {
	key := userName + "/" + d.Name
	gen, regGen := d.Generation(), s.registry.Generation()
	s.cacheMu.Lock()
	if e, ok := s.readCaches.get(key); ok && e.live(d, gen, regGen) {
		s.cacheMu.Unlock()
		pageCacheEvents.With("result_hit").Inc()
		return e.res, e.err
	}
	s.cacheMu.Unlock()
	pageCacheEvents.With("result_miss").Inc()
	res, _, err := d.IncrementalEngine().Play()
	// regGen was read before evaluating: if a model edit lands mid-
	// evaluation the entry is stored under the older generation and the
	// next read misses — conservative, never stale.
	s.cacheMu.Lock()
	if s.readCaches.put(key, &readEntry{design: d, gen: gen, regGen: regGen, res: res, err: err}) {
		webCacheEvictions.With("read").Inc()
	}
	s.cacheMu.Unlock()
	return res, err
}

// renderedSheetFor returns the cached rendered page for one user's
// design, rendering (and caching) it on miss.  The evaluation feeding
// the render goes through the result memo, so a GET arriving after a
// Play reuses the Play's evaluation and pays only the render.
func (s *Server) renderedSheetFor(u *User, d *sheet.Design) (*renderedPage, error) {
	key := u.Name + "/" + d.Name
	u.mu.RLock()
	defer u.mu.RUnlock()
	gen, regGen := d.Generation(), s.registry.Generation()
	s.cacheMu.Lock()
	if e, ok := s.readCaches.get(key); ok && e.live(d, gen, regGen) && e.page != nil {
		page := e.page
		s.cacheMu.Unlock()
		pageCacheEvents.With("page_hit").Inc()
		return page, nil
	}
	s.cacheMu.Unlock()
	pageCacheEvents.With("page_miss").Inc()
	res, err := s.evalDesign(u.Name, d)
	html, rerr := renderBytes("sheet", s.buildSheetPage(d, res, err))
	if rerr != nil {
		return nil, rerr
	}
	rp := &renderedPage{etag: sheetETag(d, gen, regGen), html: html, gz: gzipBytes(html)}
	s.cacheMu.Lock()
	if e, ok := s.readCaches.get(key); ok && e.live(d, gen, regGen) {
		e.page = rp
	}
	s.cacheMu.Unlock()
	return rp, nil
}

// renderBytes executes a page template into memory (the cacheable
// sibling of Server.render).
func renderBytes(name string, data any) ([]byte, error) {
	var buf bytes.Buffer
	if err := pageTmpl.ExecuteTemplate(&buf, name, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gzipBytes compresses a response body once at cache-fill time, so
// every compressed response afterwards is a plain write.  Returns nil
// when compression does not shrink the body.
func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil
	}
	if _, err := zw.Write(b); err != nil {
		return nil
	}
	if err := zw.Close(); err != nil {
		return nil
	}
	if buf.Len() >= len(b) {
		return nil
	}
	return append([]byte(nil), buf.Bytes()...)
}

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
