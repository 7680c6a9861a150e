package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerplay/internal/core/model"
)

// conn is one client connection of the load generator.  Over the
// network it owns one keep-alive TCP connection; in the traced run its
// transport calls the in-process handler instead.
type conn struct {
	hc   *http.Client
	base string
	// gzip makes the connection ask for compressed pages, as a
	// browser does.
	gzip bool
	zr   *gzip.Reader
}

// newConn returns a connection with exactly one TCP connection to base.
func newConn(base string, gzip bool) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true, // the generator decides what it accepts
		IdleConnTimeout:     time.Minute,
	}
	return &conn{hc: &http.Client{Transport: tr, CheckRedirect: noRedirect, Timeout: 60 * time.Second}, base: base, gzip: gzip}
}

func noRedirect(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }

func (c *conn) close() {
	if tr, ok := c.hc.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// gunzip decompresses a body, reusing the connection's reader.
func (c *conn) gunzip(raw []byte) ([]byte, error) {
	if c.zr == nil {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		c.zr = zr
	} else if err := c.zr.Reset(bytes.NewReader(raw)); err != nil {
		return nil, err
	}
	return io.ReadAll(c.zr)
}

// reply is one response as the checker sees it.
type reply struct {
	status int
	etag   string
	body   []byte // decompressed
	wire   int    // body bytes on the wire
	header http.Header
	took   time.Duration // send to last body byte
}

// do sends one request; cookie is the user's Cookie header.
func (c *conn) do(method, path, cookie string, form url.Values, hdr map[string]string) (reply, error) {
	var body io.Reader
	if form != nil && method == http.MethodPost {
		body = strings.NewReader(form.Encode())
	} else if form != nil {
		path += "?" + form.Encode()
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	if c.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	r := reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: raw, wire: len(raw), header: resp.Header, took: took}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if r.body, err = c.gunzip(raw); err != nil {
			return r, fmt.Errorf("gunzip %s: %w", path, err)
		}
	}
	return r, nil
}

// site is the state the benchmark holds about one deployment: the
// population, the shadow of every sheet, the login cookies and each
// connection's operation stream.
type site struct {
	w       *workload
	pop     []sheetRef
	shadows []*shadowSheet
	streams []*stream
	cookies map[string]string // user -> Cookie header
	// mu guards fails and checks while warm-up runs the connections
	// concurrently.
	mu     sync.Mutex
	fails  failureLog
	checks int64
}

func newSite(w *workload, seed int64) *site {
	s := &site{w: w, pop: population(w), cookies: map[string]string{}}
	for c := 0; c < w.conns; c++ {
		s.streams = append(s.streams, newStream(w, s.pop, seed, c))
	}
	return s
}

// users lists every account the workload logs in, demo first.
func (s *site) users() []string {
	out := []string{"demo"}
	seen := map[string]bool{"demo": true}
	for _, r := range s.pop {
		if !seen[r.user] {
			seen[r.user] = true
			out = append(out, r.user)
		}
	}
	return out
}

// login identifies a user and keeps the session and routing cookies.
func (s *site) login(c *conn, user string) error {
	r, err := c.do(http.MethodPost, "/login", "", url.Values{"user": {user}}, nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusSeeOther {
		return fmt.Errorf("login %s: status %d", user, r.status)
	}
	var parts []string
	for _, ck := range (&http.Response{Header: r.header}).Cookies() {
		parts = append(parts, ck.Name+"="+ck.Value)
	}
	if len(parts) == 0 {
		return fmt.Errorf("login %s: no cookies", user)
	}
	s.cookies[user] = strings.Join(parts, "; ")
	return nil
}

// populate creates the site's population over HTTP: logs every user
// in, exports the seeded designs from demo and imports a copy of each
// for every other user, and builds the shadow of every sheet.
func (s *site) populate(c *conn, reg *model.Registry) error {
	for _, u := range s.users() {
		if err := s.login(c, u); err != nil {
			return err
		}
	}
	blobs := map[string][]byte{} // seeded design -> export JSON
	for _, d := range designs {
		r, err := c.do(http.MethodGet, "/design/"+d+"/export", s.cookies["demo"], nil, nil)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("export %s: status %d", d, r.status)
		}
		blobs[d] = r.body
	}
	for _, ref := range s.pop {
		form := url.Values{"design": {string(blobs[ref.design])}, "name": {ref.design}}
		r, err := c.do(http.MethodPost, "/designs/import", s.cookies[ref.user], form, nil)
		if err != nil {
			return err
		}
		if r.status != http.StatusSeeOther {
			return fmt.Errorf("import %s for %s: status %d: %s", ref.design, ref.user, r.status, r.body)
		}
	}
	s.shadows = make([]*shadowSheet, len(s.pop))
	for i, ref := range s.pop {
		sh, err := newShadow(blobs[ref.design], reg)
		if err != nil {
			return err
		}
		s.shadows[i] = sh
	}
	return nil
}

// relogin re-identifies every user after a reboot dropped the sessions.
func (s *site) relogin(c *conn) error {
	for _, u := range s.users() {
		if err := s.login(c, u); err != nil {
			return err
		}
	}
	return nil
}

// pageDigest identifies a served sheet page for the recovery check.
type pageDigest struct {
	etag string
	sum  [32]byte
}

// capture fetches every sheet (uncompressed), checks it against the
// shadow, and returns what was served.
func (s *site) capture(c *conn) []pageDigest {
	out := make([]pageDigest, len(s.pop))
	for i, ref := range s.pop {
		s.checks++
		r, err := c.do(http.MethodGet, "/design/"+ref.design, s.cookies[ref.user], nil, nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			var want []string
			if want, err = s.shadows[i].expected(nil, false); err == nil {
				err = checkSheetPage(r.body, want)
			}
		}
		if err != nil {
			s.fails.add(fmt.Sprintf("set-up view %s/%s", ref.user, ref.design), err)
			continue
		}
		out[i] = pageDigest{etag: r.etag, sum: sha256.Sum256(r.body)}
		s.shadows[i].etag, s.shadows[i].etagVersion = r.etag, s.shadows[i].version
	}
	return out
}

// verifyRecovery re-fetches every sheet after the kill -9 and reboot:
// page bytes and ETag must equal what was served before the kill.
func (s *site) verifyRecovery(c *conn, before []pageDigest) {
	after := s.capture(c)
	for i, ref := range s.pop {
		if before[i].etag == "" || after[i].etag == "" {
			continue // already counted as a failed view
		}
		s.checks++
		switch {
		case before[i].etag != after[i].etag:
			s.fails.add(fmt.Sprintf("recovery %s/%s", ref.user, ref.design),
				fmt.Errorf("ETag %s after reboot, %s before the kill", after[i].etag, before[i].etag))
		case before[i].sum != after[i].sum:
			s.fails.add(fmt.Sprintf("recovery %s/%s", ref.user, ref.design),
				errors.New("page bytes differ from those served before the kill"))
		}
	}
}

// checkRanges sweeps each range-table row's end points once, so a
// table row the site cannot price fails set-up visibly.
func (s *site) checkRanges(c *conn, rng *rand.Rand) {
	for _, r := range sweepRanges {
		spec := sweepSpec{design: r.design, variable: r.variable,
			from: strconv.FormatFloat(r.lo, 'g', -1, 64), to: strconv.FormatFloat(r.hi, 'g', -1, 64), steps: 2}
		sheet := -1
		for i, ref := range s.pop {
			if ref.design == r.design {
				sheet = i
				break
			}
		}
		s.checks++
		res := s.exec(c, op{kind: opSweep, sheet: sheet, sweep: spec}, rng, nil)
		if res.err != nil {
			s.fails.add(fmt.Sprintf("range table %s %s=[%s,%s]", r.design, r.variable, spec.from, spec.to), res.err)
		}
	}
}

// result is one executed operation.
type result struct {
	class opClass
	took  time.Duration
	wire  int
	err   error // nil = correct
	sent  bool  // a response arrived (the server did the work)
	// points counts correct sweep points returned.
	points int
}

// exec sends one operation and checks the response against the
// shadow, which it advances by the operation's edits.
func (s *site) exec(c *conn, o op, rng *rand.Rand, hook *spanHook) result {
	ref := s.pop[o.sheet]
	sh := s.shadows[o.sheet]
	cookie := s.cookies[ref.user]
	res := result{class: o.kind.class()}
	var r reply
	var err error
	switch o.kind {
	case opView, opCondView:
		var hdr map[string]string
		conditional := o.kind == opCondView && sh.etag != ""
		if conditional {
			hdr = map[string]string{"If-None-Match": sh.etag}
		}
		r, err = c.do(http.MethodGet, "/design/"+ref.design, cookie, nil, hdr)
		if err == nil {
			err = s.checkView(r, sh, conditional, o.check, hook)
		}
	case opPlay:
		form := url.Values{}
		for _, e := range o.edits {
			form.Set(e.field, e.value)
		}
		r, err = c.do(http.MethodPost, "/design/"+ref.design+"/play", cookie, form, nil)
		if err == nil {
			err = s.checkEdit(r, ref.user, sh, func() error { return sh.applyPlay(o.edits, hook) }, hook)
		}
	case opRows:
		form := url.Values{"action": {"Add"}, "row": {o.row}, "model": {o.model}, "parent": {""}}
		if !o.add {
			form = url.Values{"action": {"Remove"}, "row": {o.row}}
		}
		r, err = c.do(http.MethodPost, "/design/"+ref.design+"/rows", cookie, form, nil)
		if err == nil {
			err = s.checkEdit(r, ref.user, sh, func() error { return sh.applyRows(o, hook) }, hook)
		}
	case opSweep:
		form := url.Values{"var": {o.sweep.variable}, "from": {o.sweep.from}, "to": {o.sweep.to},
			"steps": {strconv.Itoa(o.sweep.steps)}}
		r, err = c.do(http.MethodGet, "/design/"+ref.design+"/sweep", cookie, form, nil)
		if err == nil {
			if r.status != http.StatusOK {
				err = fmt.Errorf("status %d", r.status)
			} else {
				err = checkSweepPage(r.body, sh.d, o.sweep, rng)
			}
			if err == nil {
				res.points = o.sweep.steps
			}
		}
		hook.sweep(sh.d, o.sweep)
	}
	if err != nil {
		err = fmt.Errorf("%s %s/%s: %w", o.kind, ref.user, ref.design, err)
	}
	res.took, res.wire, res.err, res.sent = r.took, r.wire, err, r.status != 0
	return res
}

// checkView validates a sheet GET.  A 304 is correct only for a
// conditional request whose ETag still names the current state.
func (s *site) checkView(r reply, sh *shadowSheet, conditional, full bool, hook *spanHook) error {
	switch r.status {
	case http.StatusNotModified:
		if !conditional {
			return errors.New("304 to an unconditional GET")
		}
		if sh.etagVersion != sh.version {
			return fmt.Errorf("304 for ETag %s although the sheet was edited since", sh.etag)
		}
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("status %d", r.status)
	}
	if r.etag == "" {
		return errors.New("sheet page without ETag")
	}
	if conditional && r.etag == sh.etag {
		return fmt.Errorf("200 carrying the ETag %s the request already matched", r.etag)
	}
	sh.etag, sh.etagVersion = r.etag, sh.version
	if msg, bad := pageError(r.body); bad {
		return fmt.Errorf("page carries an evaluation error: %s", msg)
	}
	if !full && hook == nil {
		return nil
	}
	want, err := sh.expected(hook, false)
	if err != nil {
		return fmt.Errorf("shadow evaluation: %w", err)
	}
	if !full {
		return nil
	}
	return checkSheetPage(r.body, want)
}

// checkEdit validates a Play or rows response after applying the same
// edit to the shadow.
func (s *site) checkEdit(r reply, user string, sh *shadowSheet, apply func() error, hook *spanHook) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d", r.status)
	}
	if err := apply(); err != nil {
		return err
	}
	want, err := sh.expected(hook, true)
	if err != nil {
		return fmt.Errorf("shadow evaluation: %w", err)
	}
	hook.persist(user, sh)
	return checkSheetPage(r.body, want)
}
