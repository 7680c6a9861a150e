package web

// The repository's serving side: every user-defined equation model —
// locally published or mirrored — is a *publication* with a canonical
// content digest (internal/repo), and the registry endpoints let a
// peer discover and copy them:
//
//	GET /api/v1/registry                     the catalog: names, digests,
//	                                         published-at generations
//	GET /api/v1/registry/models/{name@digest} one immutable versioned body
//
// Versioned bodies never change — a digest names exactly one byte
// sequence — so they carry Cache-Control: immutable and a mirror may
// keep them forever.  Mirrored publications are listed and served like
// local ones, which is what makes mirror-of-a-mirror chains work: a
// third site syncing from a mirror sees the same digests and the same
// bytes it would have seen at the original publisher.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"powerplay/internal/library"
	"powerplay/internal/repo"
	"powerplay/internal/store"
)

// publication is one content-addressed model version: the index entry
// behind the registry endpoints.
type publication struct {
	name   string
	digest string
	gen    uint64 // registry generation the digest was first observed at
	origin string // publisher base URL; "" = published on this site
	body   []byte // canonical content (what the digest hashes)
}

// pubIndex is the registry's content-addressed view, rebuilt lazily
// whenever the model registry's generation moves.  Old versioned
// bodies are retained in a bounded LRU so re-publishing a model does
// not break a mirror mid-fetch of the previous digest.
type pubIndex struct {
	mu      sync.Mutex
	gen     uint64 // registry generation the index was built at
	built   bool
	pubs    map[string]*publication
	names   []string // sorted
	catalog string   // digest over the full catalog listing

	// versions retains versioned bodies by "name@digest", current and
	// superseded alike: the immutability contract's backing store.
	versions *lruCache[*publication]

	// origins marks mirrored publications: local name → publisher base
	// URL.  Entries are owned by the subscription machinery
	// (federation.go) and consulted here so the catalog can report who
	// published what.
	origins map[string]string

	// subs are the live subscriptions, by local prefix (federation.go).
	subs map[string]*subscription
}

// versionCacheSize bounds retained superseded bodies.  Publications
// are small (a schema plus equation strings); thousands are cheap.
const versionCacheSize = 4096

func newPubIndex() *pubIndex {
	return &pubIndex{
		versions: newLRU[*publication](versionCacheSize),
		origins:  make(map[string]string),
		subs:     make(map[string]*subscription),
	}
}

// refresh rebuilds the index if the registry moved.  Caller must hold
// idx.mu.
func (s *Server) refreshPubIndex() {
	idx := s.pubs
	gen := s.registry.Generation()
	if idx.built && gen == idx.gen {
		return
	}
	next := make(map[string]*publication)
	var names []string
	for _, name := range s.registry.Names() {
		m, ok := s.registry.Lookup(name)
		if !ok {
			continue
		}
		q, isEq := m.(*library.Equation)
		if !isEq {
			continue // built-ins and live proxies are not publications
		}
		body, digest, err := repo.BodyOf(q)
		if err != nil {
			continue
		}
		p := &publication{name: name, digest: digest, gen: gen, origin: idx.origins[name], body: body}
		if old, ok := idx.pubs[name]; ok && old.digest == digest {
			// Unchanged content keeps its original published-at
			// generation across unrelated registry churn.
			p.gen = old.gen
		}
		next[name] = p
		names = append(names, name)
		idx.versions.put(repo.Ref(name, digest), p)
	}
	idx.pubs = next
	idx.names = names // registry.Names() is sorted
	idx.gen = gen
	idx.built = true
	idx.catalog = catalogDigest(next, names)
}

// catalogDigest names the whole catalog: the digest of the canonical
// (name, digest) listing.  Two sites with identical catalogs produce
// identical catalog digests, so a mirror can detect "nothing changed"
// from one header.
func catalogDigest(pubs map[string]*publication, names []string) string {
	var buf []byte
	for _, n := range names {
		buf = append(buf, n...)
		buf = append(buf, '@')
		buf = append(buf, pubs[n].digest...)
		buf = append(buf, '\n')
	}
	return repo.Digest(buf)
}

// snapshotPubs returns the current publication list (sorted) and the
// catalog digest, rebuilding first if the registry moved.
func (s *Server) snapshotPubs() ([]*publication, string) {
	idx := s.pubs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	s.refreshPubIndex()
	out := make([]*publication, 0, len(idx.names))
	for _, n := range idx.names {
		out = append(out, idx.pubs[n])
	}
	return out, idx.catalog
}

// versionBody resolves name@digest to its immutable body.  Superseded
// digests come from the retained-version cache; the current digest
// always resolves, cache pressure notwithstanding.
func (s *Server) versionBody(name, digest string) (*publication, bool) {
	idx := s.pubs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	s.refreshPubIndex()
	if p, ok := idx.versions.get(repo.Ref(name, digest)); ok {
		return p, true
	}
	if p, ok := idx.pubs[name]; ok && p.digest == digest {
		return p, true
	}
	return nil, false
}

// isMirror reports whether name is a mirrored publication (and from
// where).
func (s *Server) isMirror(name string) (string, bool) {
	idx := s.pubs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	origin, ok := idx.origins[name]
	return origin, ok
}

// ----- wire shapes -----

// registryModelJSON is one catalog line.
type registryModelJSON struct {
	Name         string `json:"name"`
	Digest       string `json:"digest"`
	PublishedGen uint64 `json:"published_gen"`
	Origin       string `json:"origin,omitempty"`
}

// registryPublisherJSON summarizes one publisher: this site ("local")
// or an upstream this site mirrors.
type registryPublisherJSON struct {
	Origin string `json:"origin"`
	Models int    `json:"models"`
}

// registryResponse is the GET /api/v1/registry body.
type registryResponse struct {
	Site       string                  `json:"site"`
	Generation uint64                  `json:"generation"`
	Publishers []registryPublisherJSON `json:"publishers"`
	Models     []registryModelJSON     `json:"models"`
	NextCursor string                  `json:"next_cursor,omitempty"`
}

// apiRegistry serves the catalog: every publication's name, digest and
// published-at generation, grouped by publisher, paginated and
// prefix-filterable like /api/v1/models.  The response carries the
// whole catalog's digest in X-Powerplay-Digest (and as the ETag), so a
// mirror's "anything new?" poll is one conditional GET.
func (s *Server) apiRegistry(w http.ResponseWriter, r *http.Request) {
	pubs, catalog := s.snapshotPubs()

	byOrigin := make(map[string]int)
	var originOrder []string
	for _, p := range pubs {
		origin := p.origin
		if origin == "" {
			origin = "local"
		}
		if _, seen := byOrigin[origin]; !seen {
			originOrder = append(originOrder, origin)
		}
		byOrigin[origin]++
	}
	sort.Strings(originOrder)

	names := make([]string, len(pubs))
	for i, p := range pubs {
		names[i] = p.name
	}
	page, next, err := paginate(r, names)
	if err != nil {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}

	resp := registryResponse{
		Site:       s.cfg.SiteName,
		Generation: s.registry.Generation(),
		Models:     []registryModelJSON{},
		NextCursor: next,
	}
	for _, o := range originOrder {
		resp.Publishers = append(resp.Publishers, registryPublisherJSON{Origin: o, Models: byOrigin[o]})
	}
	byName := make(map[string]*publication, len(pubs))
	for _, p := range pubs {
		byName[p.name] = p
	}
	for _, n := range page {
		p := byName[n]
		resp.Models = append(resp.Models, registryModelJSON{
			Name: p.name, Digest: p.digest, PublishedGen: p.gen, Origin: p.origin,
		})
	}

	etag := `"` + catalog + `"`
	w.Header().Set("X-Powerplay-Digest", catalog)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	linkNext(w, r, next)
	writeJSON(w, http.StatusOK, resp)
}

// apiRegistryModel serves one immutable versioned body.  The reference
// must be versioned ({name}@{digest}): a digest names exactly one byte
// sequence, so the answer is cacheable forever and a republish can
// never change what an old reference returns.
func (s *Server) apiRegistryModel(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	name, digest, ok := repo.SplitRef(ref)
	if !ok {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest,
			"versioned reference required: {name}@{digest}")
		return
	}
	etag := `"` + digest + `"`
	w.Header().Set("X-Powerplay-Digest", digest)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if r.Header.Get("If-None-Match") == etag {
		// Immutable: a matching validator is correct by construction,
		// whether or not this site still holds the body.
		w.WriteHeader(http.StatusNotModified)
		return
	}
	p, ok := s.versionBody(name, digest)
	if !ok {
		apiFail(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no publication %s@%s on this site", name, digest))
		return
	}
	if p.origin != "" {
		// Serving a mirrored publication onward: mirror-of-a-mirror.
		repo.MirrorServes.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.body)
}

// publishModel is the one publish path: the JSON API and the HTML form
// both land here.  It validates the overwrite rules (user models are
// editable, built-ins and mirrored publications are not), compiles,
// sanity-evaluates, registers and journals the model, and returns its
// content digest.
func (s *Server) publishModel(q *library.Equation) (digest string, err error) {
	if q.Name == "" {
		return "", fmt.Errorf("the model needs a name")
	}
	if origin, mirrored := s.isMirror(q.Name); mirrored {
		return "", fmt.Errorf("%q is mirrored from %s; publish under a different name or unsubscribe first", q.Name, origin)
	}
	if err := s.checkModelOverwrite(q.Name); err != nil {
		return "", err
	}
	if err := s.persistSiteModel(q); err != nil {
		return "", err
	}
	_, digest, err = repo.BodyOf(q)
	if err != nil {
		return "", err
	}
	return digest, nil
}

// publishResponse is the POST /api/v1/models answer.
type publishResponse struct {
	Status string `json:"status"`
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// apiModelPublish publishes one model from its JSON definition — the
// machine twin of the POST /models/new form, same rules, same journal
// record, plus the content digest in the response so the publisher can
// hand out a versioned reference immediately.
func (s *Server) apiModelPublish(w http.ResponseWriter, r *http.Request) {
	var q library.Equation
	if err := decodeJSONBody(r, &q); err != nil {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	digest, err := s.publishModel(&q)
	if err != nil {
		apiFail(w, r, http.StatusUnprocessableEntity, codeInvalidParams, err.Error())
		return
	}
	w.Header().Set("X-Powerplay-Digest", digest)
	writeJSON(w, http.StatusCreated, publishResponse{Status: "ok", Name: q.Name, Digest: digest})
}

// mirrorSnapshot returns the persisted federation state for the site
// snapshot: subscriptions (sorted by prefix) and mirror origins.
func (s *Server) mirrorSnapshot() ([]store.SubSpec, map[string]string) {
	idx := s.pubs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	var subs []store.SubSpec
	for _, sub := range idx.subs {
		subs = append(subs, sub.spec)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].Prefix < subs[j].Prefix })
	origins := make(map[string]string, len(idx.origins))
	for k, v := range idx.origins {
		origins[k] = v
	}
	return subs, origins
}
