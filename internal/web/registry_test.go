package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"powerplay/internal/library"
	"powerplay/internal/repo"
)

// pubEq builds a publishable equation model for registry tests.
func pubEq(name, csw string) *library.Equation {
	// The title must not embed the name: tests assert the canonical
	// body is name-free.
	return &library.Equation{Name: name, Title: "registry test cell", Class: "computation", Csw: csw}
}

// mustPublish publishes directly through the server's publish path and
// returns the content digest.
func mustPublish(t *testing.T, s *Server, q *library.Equation) string {
	t.Helper()
	digest, err := s.publishModel(q)
	if err != nil {
		t.Fatalf("publish %s: %v", q.Name, err)
	}
	return digest
}

// getFull issues a GET and returns status, headers and body.
func getFull(t *testing.T, c *http.Client, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
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
	return resp, body
}

// TestRegistryCatalogAndVersionedBody: the catalog lists a published
// model with its content digest; the versioned body is immutable,
// digest-verified, and served with the full caching contract (ETag,
// X-Powerplay-Digest, Cache-Control: immutable, 304 on If-None-Match).
func TestRegistryCatalogAndVersionedBody(t *testing.T) {
	s, ts, c := site(t, Config{})
	digest := mustPublish(t, s, pubEq("mylib.adder", "3e-12"))
	if len(digest) != 32 {
		t.Fatalf("digest %q is not 32 hex chars", digest)
	}

	resp, body := getFull(t, c, ts.URL+"/api/v1/registry", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registry: %s: %s", resp.Status, body)
	}
	catalogDigest := resp.Header.Get("X-Powerplay-Digest")
	if len(catalogDigest) != 32 {
		t.Errorf("catalog X-Powerplay-Digest = %q", catalogDigest)
	}
	if got := resp.Header.Get("ETag"); got != `"`+catalogDigest+`"` {
		t.Errorf("catalog ETag = %q, want quoted digest", got)
	}
	var cat registryResponse
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	var entry *registryModelJSON
	for i := range cat.Models {
		if cat.Models[i].Name == "mylib.adder" {
			entry = &cat.Models[i]
		}
	}
	if entry == nil {
		t.Fatalf("published model missing from catalog: %+v", cat.Models)
	}
	if entry.Digest != digest {
		t.Errorf("catalog digest = %s, publish returned %s", entry.Digest, digest)
	}
	if entry.Origin != "" {
		t.Errorf("local publication has origin %q", entry.Origin)
	}
	if len(cat.Publishers) != 1 || cat.Publishers[0].Origin != "local" {
		t.Errorf("publishers = %+v", cat.Publishers)
	}

	// Conditional catalog GET: one header answers "anything new?".
	resp304, _ := getFull(t, c, ts.URL+"/api/v1/registry",
		map[string]string{"If-None-Match": `"` + catalogDigest + `"`})
	if resp304.StatusCode != http.StatusNotModified {
		t.Errorf("conditional catalog GET = %s, want 304", resp304.Status)
	}

	// The versioned body.
	ref := repo.Ref("mylib.adder", digest)
	resp, body = getFull(t, c, ts.URL+"/api/v1/registry/models/"+ref, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versioned body: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Powerplay-Digest"); got != digest {
		t.Errorf("X-Powerplay-Digest = %q, want %s", got, digest)
	}
	if got := resp.Header.Get("Cache-Control"); !strings.Contains(got, "immutable") {
		t.Errorf("Cache-Control = %q, want immutable", got)
	}
	canonical, err := repo.Canonical(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := repo.Digest(canonical); got != digest {
		t.Errorf("served body hashes to %s, advertised %s", got, digest)
	}
	if bytes.Contains(body, []byte("mylib.adder")) {
		t.Error("versioned body embeds the local name; digests would diverge across sites")
	}

	// 304 on the versioned body — answerable from the URL alone.
	resp304, _ = getFull(t, c, ts.URL+"/api/v1/registry/models/"+ref,
		map[string]string{"If-None-Match": `"` + digest + `"`})
	if resp304.StatusCode != http.StatusNotModified {
		t.Errorf("conditional versioned GET = %s, want 304", resp304.Status)
	}
	// Even a digest this site never held validates: immutability makes
	// the validator correct by construction.
	resp304, _ = getFull(t, c, ts.URL+"/api/v1/registry/models/mylib.adder@"+strings.Repeat("0", 32),
		map[string]string{"If-None-Match": `"` + strings.Repeat("0", 32) + `"`})
	if resp304.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET of unheld digest = %s, want 304", resp304.Status)
	}

	// An unversioned reference is a client error, not a lookup miss.
	resp, body = getFull(t, c, ts.URL+"/api/v1/registry/models/mylib.adder", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unversioned ref = %s, want 400: %s", resp.Status, body)
	}
	// An unknown versioned reference is 404.
	resp, _ = getFull(t, c, ts.URL+"/api/v1/registry/models/nope@"+strings.Repeat("a", 32), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ref = %s, want 404", resp.Status)
	}
}

// TestRepublishImmutability is the acceptance criterion: re-publishing
// a model changes the catalog digest, while the old versioned
// reference keeps serving byte-identical content forever.
func TestRepublishImmutability(t *testing.T) {
	s, ts, c := site(t, Config{})
	d1 := mustPublish(t, s, pubEq("mylib.mult", "2e-12"))
	ref1 := repo.Ref("mylib.mult", d1)
	_, body1 := getFull(t, c, ts.URL+"/api/v1/registry/models/"+ref1, nil)

	d2 := mustPublish(t, s, pubEq("mylib.mult", "7e-12"))
	if d2 == d1 {
		t.Fatal("republish with different content kept the digest")
	}

	// The registry now advertises the new version...
	_, catBody := getFull(t, c, ts.URL+"/api/v1/registry?prefix=mylib.mult", nil)
	var cat registryResponse
	if err := json.Unmarshal(catBody, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Models) != 1 || cat.Models[0].Digest != d2 {
		t.Fatalf("catalog after republish = %+v, want digest %s", cat.Models, d2)
	}

	// ...while the superseded reference is byte-identical to before.
	resp, again := getFull(t, c, ts.URL+"/api/v1/registry/models/"+ref1, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("superseded version gone: %s", resp.Status)
	}
	if !bytes.Equal(body1, again) {
		t.Error("superseded versioned body changed after republish")
	}
}

// TestApiModelPublish: the JSON publish endpoint enforces the form's
// rules and returns the digest.
func TestApiModelPublish(t *testing.T) {
	_, ts, c := site(t, Config{})
	blob, _ := json.Marshal(pubEq("mylib.shift", "1e-12"))
	resp, err := c.Post(ts.URL+"/api/v1/models", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish: %s: %s", resp.Status, body)
	}
	var pr publishResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Digest == "" || pr.Digest != resp.Header.Get("X-Powerplay-Digest") {
		t.Errorf("digest body=%q header=%q", pr.Digest, resp.Header.Get("X-Powerplay-Digest"))
	}

	// Overwriting a built-in is rejected with the envelope.
	blob, _ = json.Marshal(pubEq(library.SRAM, "1e-12"))
	resp, err = c.Post(ts.URL+"/api/v1/models", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("overwriting a built-in = %s, want 422", resp.Status)
	}
}

// TestListingPagination: ?limit= pages the model list and the registry
// with a stable order, Link: rel="next" continuations, and ?prefix=
// narrowing — and paging unions back to the full listing.
func TestListingPagination(t *testing.T) {
	s, ts, c := site(t, Config{})
	for i := 0; i < 5; i++ {
		mustPublish(t, s, pubEq(fmt.Sprintf("plib.m%02d", i), "2e-12"))
	}

	var all []string
	next := ts.URL + "/api/v1/models?prefix=plib.&limit=2"
	pages := 0
	for next != "" {
		resp, body := getFull(t, c, next, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: %s", pages, resp.Status)
		}
		var sums []ModelSummary
		if err := json.Unmarshal(body, &sums); err != nil {
			t.Fatal(err)
		}
		for _, sum := range sums {
			all = append(all, sum.Name)
		}
		pages++
		next = ""
		if link := resp.Header.Get("Link"); link != "" && strings.Contains(link, `rel="next"`) {
			next = ts.URL + strings.TrimSuffix(strings.TrimPrefix(strings.Split(link, ";")[0], "<"), ">")
		}
		if pages > 10 {
			t.Fatal("pagination does not terminate")
		}
	}
	if pages != 3 {
		t.Errorf("pages = %d, want 3 (2+2+1)", pages)
	}
	for i, name := range all {
		if want := fmt.Sprintf("plib.m%02d", i); name != want {
			t.Fatalf("paged union[%d] = %s, want %s (full: %v)", i, name, want, all)
		}
	}

	// The registry endpoint pages the same way.
	resp, body := getFull(t, c, ts.URL+"/api/v1/registry?prefix=plib.&limit=3", nil)
	var cat registryResponse
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Models) != 3 || cat.NextCursor != "plib.m02" {
		t.Errorf("registry page: %d models, cursor %q", len(cat.Models), cat.NextCursor)
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "cursor=plib.m02") {
		t.Errorf("registry Link = %q", link)
	}

	// A bad limit is a bad request.
	resp, _ = getFull(t, c, ts.URL+"/api/v1/models?limit=-1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=-1 = %s, want 400", resp.Status)
	}
}
