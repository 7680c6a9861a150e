package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerplay/internal/circuit"
	"powerplay/internal/core/model"
	"powerplay/internal/faultnet"
	"powerplay/internal/library"
	"powerplay/internal/repo"
)

// publisherSite builds a site with published models m0..m(n-1) under
// the given name prefix and returns it with its test server.
func publisherSite(t *testing.T, n int, namePrefix string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(Config{SiteName: "publisher"}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustPublish(t, s, pubEq(namePrefix+string(rune('a'+i)), "2e-12"))
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// consumerSite builds a mirror-capable site whose background sync loop
// is effectively parked (tests drive convergence with syncNow).
func consumerSite(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.SyncInterval = time.Hour
	s, err := NewServer(cfg, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSubscribeMirrorsLocally is the tentpole's acceptance path: a
// consumer subscribes, the publisher's models register locally as
// plain equation models, and killing the publisher changes nothing
// about evaluation — local latency, no stale notes, no remote calls.
// syncNow forces one synchronous sync pass on the subscription at
// prefix, for deterministic convergence.
func syncNow(s *Server, prefix string) (repo.Stats, error) {
	s.pubs.mu.Lock()
	sub, ok := s.pubs.subs[prefix]
	s.pubs.mu.Unlock()
	if !ok {
		return repo.Stats{}, fmt.Errorf("web: no subscription on prefix %q", prefix)
	}
	return sub.syncer.SyncOnce(context.Background())
}

func TestSubscribeMirrorsLocally(t *testing.T) {
	pub, pubTS := publisherSite(t, 2, "cells.")
	west := consumerSite(t, Config{SiteName: "west"})

	st, err := west.Subscribe(pubTS.URL, "east.", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 || st.LastError != "" {
		t.Fatalf("first sync: %+v", st)
	}

	m, ok := west.Registry().Lookup("east.cells.a")
	if !ok {
		t.Fatal("mirrored model not registered")
	}
	q, isEq := m.(*library.Equation)
	if !isEq {
		t.Fatalf("mirror registered as %T, want *library.Equation (local evaluation)", m)
	}
	if v, isVolatile := m.(interface{ Volatile() bool }); isVolatile && v.Volatile() {
		t.Error("mirrored model is volatile; incremental Play would re-price it every time")
	}
	// The mirrored body matches the publisher's bit for bit.
	_, westDigest, err := repo.BodyOf(q)
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := pub.Registry().Lookup("cells.a")
	_, pubDigest, err := repo.BodyOf(pm.(*library.Equation))
	if err != nil {
		t.Fatal(err)
	}
	if westDigest != pubDigest {
		t.Errorf("digest west=%s pub=%s", westDigest, pubDigest)
	}

	// Publisher dies.  Evaluation must be indistinguishable from a
	// locally published model: success, no stale annotation.
	pubTS.Close()
	est, err := west.Registry().Evaluate("east.cells.a", model.Params{})
	if err != nil {
		t.Fatalf("eval with dead publisher: %v", err)
	}
	for _, note := range est.Notes {
		if strings.Contains(note, staleNotePrefix) {
			t.Errorf("mirrored eval annotated stale: %q", note)
		}
	}

	// A sync pass against the dead publisher fails loudly but drops
	// nothing.
	if _, err := syncNow(west, "east."); err == nil {
		t.Error("syncNow against a dead publisher should error")
	}
	if _, ok := west.Registry().Lookup("east.cells.a"); !ok {
		t.Error("failed sync dropped a mirrored model")
	}
}

// TestMirrorOfMirror: C mirrors B which mirrors A.  Content addressing
// is origin-independent, so the digest and bytes C holds are exactly
// what A published.
func TestMirrorOfMirror(t *testing.T) {
	siteA, tsA := publisherSite(t, 1, "lib.")
	siteB := consumerSite(t, Config{SiteName: "B"})
	if _, err := siteB.Subscribe(tsA.URL, "a.", ""); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(siteB.Handler())
	t.Cleanup(tsB.Close)

	siteC := consumerSite(t, Config{SiteName: "C"})
	st, err := siteC.Subscribe(tsB.URL, "b.", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || st.LastError != "" {
		t.Fatalf("C's sync from B: %+v", st)
	}

	mA, _ := siteA.Registry().Lookup("lib.a")
	bodyA, digestA, err := repo.BodyOf(mA.(*library.Equation))
	if err != nil {
		t.Fatal(err)
	}
	mC, ok := siteC.Registry().Lookup("b.a.lib.a")
	if !ok {
		t.Fatalf("C's mirror missing; names: %v", siteC.Registry().Names())
	}
	bodyC, digestC, err := repo.BodyOf(mC.(*library.Equation))
	if err != nil {
		t.Fatal(err)
	}
	if digestC != digestA {
		t.Errorf("digest drifted across the chain: A=%s C=%s", digestA, digestC)
	}
	if !bytes.Equal(bodyA, bodyC) {
		t.Error("bytes drifted across the chain")
	}

	// B's registry marks the mirrored publication with its origin and
	// counts the onward serve.
	resp, body := getFull(t, &http.Client{}, tsB.URL+"/api/v1/registry?prefix=a.", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B registry: %s", resp.Status)
	}
	var cat registryResponse
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Models) != 1 || cat.Models[0].Origin != tsA.URL {
		t.Errorf("B catalog = %+v, want origin %s", cat.Models, tsA.URL)
	}
}

// TestSyncSurvivesPublisherFlap drives the flap e2e through faultnet:
// the publisher serves, turns into 5xx/RST noise, then recovers.  The
// mirror must keep serving its last good catalog throughout and
// converge — including picking up a publication made during the
// outage — once the network heals.
func TestSyncSurvivesPublisherFlap(t *testing.T) {
	pub, err := NewServer(Config{SiteName: "east"}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, pub, pubEq("flap.one", "2e-12"))
	proxy := faultnet.New(pub.Handler())
	t.Cleanup(proxy.Close)

	west := consumerSite(t, Config{SiteName: "west"})
	// The subscription rides the real Remote client; swap in test
	// pacing so the flap retries run at test speed.
	st, err := west.Subscribe(proxy.URL(), "east.", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 {
		t.Fatalf("initial sync: %+v", st)
	}
	west.pubs.mu.Lock()
	sub := west.pubs.subs["east."]
	west.pubs.mu.Unlock()
	// Park the background poll loop first: its immediate first pass
	// would race the field swap below.  The test drives every further
	// pass deterministically through syncNow.
	stopSubscription(sub)
	rc := sub.rc
	rc.retry = fastRetry()
	// The first sync already initialized the lazy breaker; replace it
	// with test pacing so post-recovery convergence is not gated on the
	// production 10 s cooldown.
	rc.breaker = &circuit.Breaker{Threshold: 3, Cooldown: 20 * time.Millisecond}

	// The publisher starts flapping: alternating 5xx and RST.
	proxy.SetDefault(faultnet.Fault{Mode: faultnet.Status, Code: 503})
	for i := 0; i < 2; i++ {
		if _, err := syncNow(west, "east."); err == nil {
			t.Fatal("sync through a 503 wall should fail")
		}
	}
	proxy.SetDefault(faultnet.Fault{Mode: faultnet.Reset})
	if _, err := syncNow(west, "east."); err == nil {
		t.Fatal("sync through RSTs should fail")
	}
	// Throughout the outage the mirror serves.
	if _, err := west.Registry().Evaluate("east.flap.one", model.Params{}); err != nil {
		t.Fatalf("eval during publisher flap: %v", err)
	}

	// The publisher publishes during its own outage, then recovers.
	mustPublish(t, pub, pubEq("flap.two", "4e-12"))
	proxy.SetDefault(faultnet.Fault{Mode: faultnet.Pass})
	// The breaker may have opened during the flap; converge within its
	// recovery window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err = syncNow(west, "east.")
		if err == nil && st.Applied+st.Unchanged == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged after recovery: %+v err=%v", st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, ok := west.Registry().Lookup("east.flap.two"); !ok {
		t.Error("publication made during the outage never arrived")
	}
}

// TestUnsubscribeDropsMirrors: DELETE semantics — the subscription's
// models leave the registry and the catalog.
func TestUnsubscribeDropsMirrors(t *testing.T) {
	_, pubTS := publisherSite(t, 2, "u.")
	west := consumerSite(t, Config{SiteName: "west"})
	if _, err := west.Subscribe(pubTS.URL, "up.", ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := west.Registry().Lookup("up.u.a"); !ok {
		t.Fatal("mirror missing before unsubscribe")
	}
	if err := west.Unsubscribe("up."); err != nil {
		t.Fatal(err)
	}
	if _, ok := west.Registry().Lookup("up.u.a"); ok {
		t.Error("mirror survived unsubscribe")
	}
	if got := len(west.subscriptions()); got != 0 {
		t.Errorf("subscriptions after unsubscribe: %d", got)
	}
	if err := west.Unsubscribe("up."); err == nil {
		t.Error("double unsubscribe should error")
	}
}

// TestSubscriptionFilter: the filter narrows what is mirrored to the
// publisher names under the given prefix.
func TestSubscriptionFilter(t *testing.T) {
	pub, pubTS := publisherSite(t, 2, "rf.")
	mustPublish(t, pub, pubEq("dsp.x", "2e-12"))
	west := consumerSite(t, Config{SiteName: "west"})
	st, err := west.Subscribe(pubTS.URL, "m.", "rf.")
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 {
		t.Fatalf("filtered sync applied %d, want 2", st.Applied)
	}
	if _, ok := west.Registry().Lookup("m.dsp.x"); ok {
		t.Error("filter leaked a non-matching publication")
	}
}

// TestMountsAPI drives the whole lifecycle over HTTP: create a mirror
// mount, list it, create one against a dead URL (still 201, converges
// later), delete both kinds.
func TestMountsAPI(t *testing.T) {
	_, pubTS := publisherSite(t, 1, "api.")
	west := consumerSite(t, Config{SiteName: "west"})
	ts := httptest.NewServer(west.Handler())
	t.Cleanup(ts.Close)
	c := &http.Client{}

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := c.Post(ts.URL+"/api/v1/mounts", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	resp, body := post(`{"url":"` + pubTS.URL + `","prefix":"east."}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mount: %s: %s", resp.Status, body)
	}
	var mj mountJSON
	if err := json.Unmarshal([]byte(body), &mj); err != nil {
		t.Fatal(err)
	}
	if mj.Mode != mountModeMirror || mj.Models != 1 || mj.SyncError != "" {
		t.Errorf("mount response = %+v", mj)
	}

	// Duplicate prefix is rejected.
	resp, _ = post(`{"url":"` + pubTS.URL + `","prefix":"east."}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("duplicate mount = %s, want 422", resp.Status)
	}
	// Unknown mode is a bad request.
	resp, _ = post(`{"url":"x","prefix":"y.","mode":"teleport"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode = %s, want 400", resp.Status)
	}
	// A dead publisher still creates the subscription: 201 with the
	// sync error reported, because the poll loop will converge later.
	resp, body = post(`{"url":"http://127.0.0.1:1","prefix":"dead."}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mount of dead publisher = %s, want 201: %s", resp.Status, body)
	}
	if err := json.Unmarshal([]byte(body), &mj); err != nil {
		t.Fatal(err)
	}
	if mj.SyncError == "" {
		t.Error("dead publisher mount reported no sync_error")
	}

	// The listing shows both, sorted by prefix.
	resp, rawListing := getFull(t, c, ts.URL+"/api/v1/mounts", nil)
	var listing []mountJSON
	if err := json.Unmarshal(rawListing, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 || listing[0].Prefix != "dead." || listing[1].Prefix != "east." {
		t.Errorf("mounts listing = %+v", listing)
	}

	// Delete the mirror; its models leave the registry.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/mounts/east.", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete mount: %s", resp.Status)
	}
	if _, ok := west.Registry().Lookup("east.api.a"); ok {
		t.Error("mirror survived DELETE")
	}
	// Deleting an unknown prefix is 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/mounts/nope.", nil)
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown = %s, want 404", resp.Status)
	}
}

// TestMirrorSurvivesRestart is the durability acceptance: a mirror is
// killed (no Close, no snapshot), the publisher dies too, and the
// restarted mirror serves everything it had — from the journal alone.
func TestMirrorSurvivesRestart(t *testing.T) {
	_, pubTS := publisherSite(t, 2, "dur.")
	dir := t.TempDir()

	west, err := NewServer(Config{
		SiteName: "west", DataDir: dir, Durability: "always", SyncInterval: time.Hour,
	}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	st, err := west.Subscribe(pubTS.URL, "east.", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 {
		t.Fatalf("sync: %+v", st)
	}
	// Simulated kill -9: stop the loops so the old process cannot
	// interfere, but never snapshot or close the journals.
	west.stopSubscriptions()
	pubTS.Close()

	west2, err := NewServer(Config{
		SiteName: "west", DataDir: dir, Durability: "always", SyncInterval: time.Hour,
	}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { west2.Close() })
	if got := west2.ResumeSubscriptions(); len(got) != 1 || got[0] != "east." {
		t.Fatalf("resumed %v, want [east.]", got)
	}
	m, ok := west2.Registry().Lookup("east.dur.a")
	if !ok {
		t.Fatal("mirror lost across restart")
	}
	if _, err := west2.Registry().Evaluate("east.dur.a", model.Params{}); err != nil {
		t.Fatalf("eval after restart with dead publisher: %v", err)
	}
	// The seeded digest map means the resumed subscription knows what
	// it holds — a live publisher would be asked for nothing.
	subs := west2.subscriptions()
	if len(subs) != 1 {
		t.Fatalf("subscriptions = %d", len(subs))
	}
	mirrored := subs[0].Mirrored()
	_, wantDigest, _ := repo.BodyOf(m.(*library.Equation))
	if mirrored["dur.a"] != wantDigest {
		t.Errorf("seeded digest = %q, want %q", mirrored["dur.a"], wantDigest)
	}
	// The restarted site's own catalog still marks the origin, so it
	// keeps serving the publications onward (mirror-of-a-mirror
	// survives the crash too).
	if origin, ok := west2.isMirror("east.dur.a"); !ok || origin != pubTS.URL {
		t.Errorf("origin after restart = %q, %v", origin, ok)
	}
}

// TestPublishRefusesMirroredName: local publication cannot shadow a
// mirrored model; the mirror owns the name until unsubscribe.
func TestPublishRefusesMirroredName(t *testing.T) {
	_, pubTS := publisherSite(t, 1, "own.")
	west := consumerSite(t, Config{SiteName: "west"})
	if _, err := west.Subscribe(pubTS.URL, "east.", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := west.publishModel(pubEq("east.own.a", "9e-12")); err == nil {
		t.Fatal("publishing over a mirrored name should fail")
	}
	// The shard replication endpoint publishes through the same path,
	// from a JSON body as from the form.
	westTS := httptest.NewServer(west.Handler())
	defer westTS.Close()
	blob, _ := json.Marshal(pubEq("east.own.a", "9e-12"))
	if resp, body := doAPI(t, "POST", westTS.URL+"/api/v1/shard/model", string(blob), nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("replicating over a mirrored name: %s: %s", resp.Status, body)
	}
	blob, _ = json.Marshal(pubEq("repl.json", "3e-12"))
	if resp, body := doAPI(t, "POST", westTS.URL+"/api/v1/shard/model", string(blob), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("replicating a JSON publish: %s: %s", resp.Status, body)
	}
	if _, ok := west.Registry().Lookup("repl.json"); !ok {
		t.Error("replicated JSON publish not registered")
	}
	// And a subscription cannot clobber a local publication either.
	mustPublish(t, west, pubEq("mine.x", "1e-12"))
	pub2, pub2TS := publisherSite(t, 0, "")
	mustPublish(t, pub2, pubEq("x", "5e-12"))
	st, err := west.Subscribe(pub2TS.URL, "mine.", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 {
		t.Fatalf("clobbering sync pass: %+v", st)
	}
	m, _ := west.Registry().Lookup("mine.x")
	if _, digest, _ := repo.BodyOf(m.(*library.Equation)); digest == "" {
		t.Fatal("local model gone")
	}
	if origin, ok := west.isMirror("mine.x"); ok {
		t.Errorf("local model became a mirror of %s", origin)
	}
}
