// Package web is PowerPlay's World Wide Web application: the access
// mechanism that makes the framework universally available.
//
// The 1996 implementation was HTML pages plus Perl CGI scripts; this
// one is Go's net/http and html/template, but every interaction from
// the paper's "PowerPlay Implementation" section is present:
//
//   - user identification on first access, with per-user defaults and
//     designs persisted on the server's local file system;
//   - a menu page linking the library, the user's designs, the
//     model-definition form, and the tutorials;
//   - per-cell input pages (Figure 4) with virtually-instantaneous
//     feedback and a save-to-spreadsheet action;
//   - design spreadsheets (Figures 2 and 5) whose Play button
//     recalculates the whole hierarchy, with every subcircuit
//     hyperlinked to its own page and documentation;
//   - an interactive page for defining new models from equations; and
//   - the HTTP model-access protocol of Figures 6–7, through which a
//     PowerPlay site serves its models to remote sites and mounts
//     remote libraries into its own namespace, with optional
//     password restriction.
package web

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/shard"
	"powerplay/internal/store"
)

// Config parameterizes a server.
type Config struct {
	// SiteName labels pages ("Berkeley", "Motorola").
	SiteName string
	// DataDir persists users, designs and models; empty keeps
	// everything in memory (tests, demos).
	DataDir string
	// Password, when non-empty, restricts both the HTML login and the
	// remote model API ("PowerPlay can provide password-restricted
	// access").
	Password string
	// SweepTimeout caps one exploration-page sweep request; zero or
	// negative selects the 30 s default.  Sites mounting slow remote
	// models may need more; batch test rigs may want much less.
	SweepTimeout time.Duration
	// RequestTimeout is the deadline given to every request's context;
	// zero selects a 2 min default (above any sweep budget), negative
	// disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps any request body; zero selects a 4 MiB
	// default, negative disables the cap.
	MaxBodyBytes int64
	// CacheEntries bounds each of the server's read-path caches (the
	// per-design sweep point caches and the memoized sheet
	// results/pages), in entries; zero selects the 256 default,
	// negative selects the minimum of one entry.
	CacheEntries int
	// Durability selects the journal fsync policy when DataDir is set:
	// "always" (fsync per mutation), "interval" (background fsync, the
	// default), or "never" (leave it to the OS).  See store.ParsePolicy.
	Durability string
	// SnapshotEvery is the per-user journal length at which the server
	// folds the journal into a snapshot; zero selects the store's
	// default (512 records).
	SnapshotEvery int
	// SyncInterval paces each repository subscription's digest-diff
	// poll loop (see internal/repo); zero selects repo.DefaultInterval.
	SyncInterval time.Duration
	// ShardID and ShardCount make this server one backend of a sharded
	// fleet (see internal/shard): it owns only the users the rendezvous
	// hash assigns to shard ShardID of ShardCount, recovers only their
	// journals at boot, and answers requests for anyone else with a 421
	// ShardRedirect naming the owner.  ShardCount zero (the default)
	// disables sharding entirely; when set, 0 <= ShardID < ShardCount.
	ShardID    int
	ShardCount int
}

// User is one identified user's server-side state.
type User struct {
	// Name is the login name.
	Name string
	// Defaults remembers the last-used parameters per model, keyed by
	// model name: the "relevant user default parameters" of the paper.
	Defaults map[string]map[string]float64
	// Designs are the user's sheets, by name.
	Designs map[string]*sheet.Design

	// mu is this user's shard of the server lock: it guards Defaults,
	// Designs and every design tree under them.  Handlers lock the one
	// user they serve, so one user's Play (write lock) never blocks
	// another user's GETs.  Lock order: never acquire Server.mu while
	// holding a User lock (the few paths that need both take Server.mu
	// first, or sequentially).
	mu sync.RWMutex
}

// Server is one PowerPlay site.
type Server struct {
	cfg      Config
	registry *model.Registry

	// mu guards only the account tables: sessions and the users map.
	// Per-user state — designs and defaults — is sharded behind each
	// User's own lock, so traffic for different users never contends
	// here beyond the map lookup.
	mu       sync.RWMutex
	sessions map[string]string // token -> user name
	users    map[string]*User

	// sweepCaches memoizes exploration points per (user, design)
	// snapshot, so repeated sweep requests re-use already-priced
	// operating points.  Guarded by its own mutex: cache bookkeeping
	// must not serialize behind design edits holding a user lock.
	sweepMu     sync.Mutex
	sweepCaches *lruCache[*sweepCacheEntry]

	// readCaches memoizes sheet evaluations and rendered pages per
	// (user, design) — the serving hot path (see pagecache.go).
	cacheMu    sync.Mutex
	readCaches *lruCache[*readEntry]

	// started timestamps server construction for the healthz uptime.
	started time.Time

	// ring is the rendezvous hash over the fleet's canonical member
	// names, nil on an unsharded server (see shard.go).  Immutable
	// after NewServer.
	ring *shard.Ring

	// store is the durability layer (nil without a DataDir): the
	// per-user mutation journals and snapshots every mutating handler
	// writes through (see persist.go).
	store *store.Store
	// lastRecovery summarizes the boot replay for healthz.
	lastRecovery *store.RecoveryStats
	// mounts is the live remote-mount table, journaled so a restarted
	// site can re-mount.  Guarded by mu.
	mounts []store.MountSpec

	// pubs is the content-addressed view of the registry — the
	// publication index behind /api/v1/registry — and the home of the
	// federation state: mirror origins and live subscriptions (see
	// registry.go and federation.go).
	pubs *pubIndex
	// recoveredSubs holds the subscriptions boot recovery found, until
	// ResumeSubscriptions consumes them.
	recoveredSubs []store.SubSpec
}

// sweepCacheEntry ties a point cache to the design snapshot it was
// filled from: the design's identity and mutation generation plus the
// registry generation.  Any sheet edit or library change retires the
// cache (see explore.Cache's validity rule).
type sweepCacheEntry struct {
	design *sheet.Design
	gen    uint64
	regGen uint64
	cache  *explore.Cache
}

// NewServer builds a site over a model registry (usually
// library.Standard() plus site-local models).  If cfg.DataDir is set,
// previously persisted users, designs and user models are loaded.
func NewServer(cfg Config, reg *model.Registry) (*Server, error) {
	if cfg.SiteName == "" {
		cfg.SiteName = "PowerPlay"
	}
	if cfg.ShardCount < 0 || (cfg.ShardCount > 0 && (cfg.ShardID < 0 || cfg.ShardID >= cfg.ShardCount)) {
		return nil, fmt.Errorf("web: shard id %d not in 0..%d", cfg.ShardID, cfg.ShardCount-1)
	}
	s := &Server{
		cfg:         cfg,
		registry:    reg,
		sessions:    make(map[string]string),
		users:       make(map[string]*User),
		sweepCaches: newLRU[*sweepCacheEntry](cfg.cacheEntries()),
		readCaches:  newLRU[*readEntry](cfg.cacheEntries()),
		started:     time.Now(),
		pubs:        newPubIndex(),
	}
	if cfg.ShardCount > 0 {
		// Built before openStore: recovery filters the on-disk user
		// partition through the same ring the request path uses.
		s.ring = shard.NewRing(shard.Members(cfg.ShardCount))
	}
	if cfg.DataDir != "" {
		if err := s.openStore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Registry exposes the site's model namespace.
func (s *Server) Registry() *model.Registry { return s.registry }

// cacheEntries resolves the per-cache entry cap (see Config).
func (c Config) cacheEntries() int {
	switch {
	case c.CacheEntries > 0:
		return c.CacheEntries
	case c.CacheEntries < 0:
		return 1
	}
	return defaultCacheEntries
}

// defaultCacheEntries bounds each read-path cache when
// Config.CacheEntries is unset: roomy for any realistic number of
// concurrently active (user, design) pairs, small enough that retired
// designs and departed users cannot accumulate into a leak.
const defaultCacheEntries = 256

// sweepCacheFor returns the evaluation cache for one user's design at
// its current generation, retiring any cache filled from an older
// snapshot of the sheet or of the model library.  The caller must hold
// the user's lock (read or write) so the generation cannot move
// between the read and the sweep's design clone.
func (s *Server) sweepCacheFor(user string, d *sheet.Design) *explore.Cache {
	key := user + "/" + d.Name
	gen, regGen := d.Generation(), s.registry.Generation()
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	e, ok := s.sweepCaches.get(key)
	if !ok || e.design != d || e.gen != gen || e.regGen != regGen {
		e = &sweepCacheEntry{design: d, gen: gen, regGen: regGen, cache: explore.NewCache(0)}
		if s.sweepCaches.put(key, e) {
			webCacheEvictions.With("sweep").Inc()
		}
	}
	return e.cache
}

// InstallDesign places a design under a user's account (creating the
// account if needed) and persists it: how seeded demos and programmatic
// imports land on a site.  If the user already has a design with that
// name, the existing one wins and the call is a no-op — so re-running
// a seed flag on a durable site after a restart cannot clobber the
// edits recovery just replayed.
func (s *Server) InstallDesign(userName string, d *sheet.Design) error {
	if !validUserName(userName) {
		return fmt.Errorf("web: invalid user name %q", userName)
	}
	if !validUserName(d.Name) {
		return fmt.Errorf("web: design name %q not addressable in URLs", d.Name)
	}
	if !s.Owns(userName) {
		return fmt.Errorf("web: user %s belongs to shard %d, not this backend (shard %d)",
			userName, s.ring.Pick(userName), s.cfg.ShardID)
	}
	s.mu.Lock()
	u, ok := s.users[userName]
	if !ok {
		u = &User{
			Name:     userName,
			Defaults: make(map[string]map[string]float64),
			Designs:  make(map[string]*sheet.Design),
		}
		s.users[userName] = u
	}
	s.mu.Unlock()
	u.mu.Lock()
	if _, exists := u.Designs[d.Name]; exists {
		u.mu.Unlock()
		return nil
	}
	u.Designs[d.Name] = d
	rec, err := designRecord(d)
	var lag int
	if err == nil {
		lag, err = s.appendUser(u.Name, rec)
	}
	u.mu.Unlock()
	if err != nil {
		return fmt.Errorf("web: persisting design %s: %w", d.Name, err)
	}
	s.maybeSnapshotUser(u, lag)
	return nil
}

// Handler returns the site's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every route registers through the instrumentation wrapper, with
	// its literal pattern as the (bounded-cardinality) route label.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(pattern, h))
	}
	// HTML application.
	handle("GET /{$}", s.handleFront)
	handle("POST /login", s.handleLogin)
	handle("GET /logout", s.handleLogout)
	handle("GET /menu", s.auth(s.handleMenu))
	handle("GET /library", s.auth(s.handleLibrary))
	handle("GET /cell/{name...}", s.auth(s.handleCellForm))
	handle("POST /cell/{name...}", s.auth(s.handleCellEval))
	handle("GET /designs", s.auth(s.handleDesigns))
	handle("POST /designs", s.auth(s.handleDesignCreate))
	handle("POST /designs/delete", s.auth(s.handleDesignDelete))
	handle("GET /design/{name}", s.auth(s.handleDesignSheet))
	handle("POST /design/{name}/play", s.auth(s.handleDesignPlay))
	handle("POST /design/{name}/rows", s.auth(s.handleDesignRows))
	handle("GET /design/{name}/analysis", s.auth(s.handleDesignAnalysis))
	handle("GET /design/{name}/sweep", s.auth(s.handleDesignSweep))
	handle("GET /design/{name}/export", s.auth(s.handleDesignExport))
	handle("GET /design/{name}/csv", s.auth(s.handleDesignCSV))
	handle("POST /designs/import", s.auth(s.handleDesignImport))
	handle("GET /models/new", s.auth(s.handleModelForm))
	handle("POST /models/new", s.auth(s.handleModelCreate))
	handle("GET /models/edit/{name...}", s.auth(s.handleModelEdit))
	handle("GET /doc/{name...}", s.auth(s.handleDoc))
	handle("GET /help", s.handleHelp)
	// Remote model protocol (Figures 6-7): the versioned JSON API and
	// the unauthenticated probes (see apiv1.go).
	s.apiRoutes(handle)
	// Hardening stack (see middleware.go): recovery outermost so it
	// also covers the inner middleware, then request IDs (so every
	// deeper log line and error envelope can carry one), then the body
	// cap, then the per-request deadline.
	var h http.Handler = mux
	if s.cfg.ShardCount > 0 {
		h = shardHeaderMiddleware(h, s.shardID())
	}
	if d := s.requestTimeout(); d > 0 {
		h = timeoutMiddleware(h, d)
	}
	if max := s.maxBodyBytes(); max > 0 {
		h = limitBodyMiddleware(h, max)
	}
	return recoverMiddleware(requestIDMiddleware(h))
}

// requestTimeout resolves the per-request context deadline (0 = off).
// The default never undercuts the sweep budget: a site configured for
// long sweeps gets a correspondingly longer request deadline.
func (s *Server) requestTimeout() time.Duration {
	switch {
	case s.cfg.RequestTimeout > 0:
		return s.cfg.RequestTimeout
	case s.cfg.RequestTimeout < 0:
		return 0
	}
	if d := s.sweepTimeout() + 30*time.Second; d > defaultRequestTimeout {
		return d
	}
	return defaultRequestTimeout
}

// maxBodyBytes resolves the request-body cap (0 = off).
func (s *Server) maxBodyBytes() int64 {
	switch {
	case s.cfg.MaxBodyBytes > 0:
		return s.cfg.MaxBodyBytes
	case s.cfg.MaxBodyBytes < 0:
		return 0
	}
	return defaultMaxBodyBytes
}

// ----- sessions -----

const sessionCookie = "powerplay_session"

func newToken() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand failure is not recoverable
	}
	return hex.EncodeToString(b)
}

// currentUser resolves the request's session, if any.
func (s *Server) currentUser(r *http.Request) *User {
	c, err := r.Cookie(sessionCookie)
	if err != nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	name, ok := s.sessions[c.Value]
	if !ok {
		return nil
	}
	return s.users[name]
}

// auth wraps HTML handlers: unidentified users are sent to the login
// page, since WWW browsers do not supply user names.
func (s *Server) auth(h func(http.ResponseWriter, *http.Request, *User)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Sharded fleets first: a request routed here for a user another
		// backend owns gets the ShardRedirect, not a login bounce —
		// the router heals on the 421, a login bounce would loop.
		if s.misdirected(w, r) {
			return
		}
		u := s.currentUser(r)
		if u == nil {
			http.Redirect(w, r, "/", http.StatusSeeOther)
			return
		}
		h(w, r, u)
	}
}

// apiAuth guards the remote protocol with the optional site password,
// carried in the X-PowerPlay-Key header ("secure scripts at Universal
// Resource Locators").
func (s *Server) apiAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Password != "" && r.Header.Get("X-PowerPlay-Key") != s.cfg.Password {
			apiFail(w, r, http.StatusUnauthorized, codeUnauthorized, "missing or wrong site key")
			return
		}
		h(w, r)
	}
}

// login identifies a user, creating server-side state on first access.
func (s *Server) login(name string) (token string, err error) {
	if !validUserName(name) {
		return "", fmt.Errorf("invalid user name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		u = &User{
			Name:     name,
			Defaults: make(map[string]map[string]float64),
			Designs:  make(map[string]*sheet.Design),
		}
		s.users[name] = u
		// Journal the account's existence so a crashed site greets the
		// user by name again.  Still under s.mu, so no concurrent writer
		// for this brand-new user exists yet.
		if _, err := s.appendUser(name, store.Record{Kind: store.KindUserCreate}); err != nil {
			delete(s.users, name)
			return "", fmt.Errorf("persisting account: %w", err)
		}
	}
	token = newToken()
	s.sessions[token] = name
	return token, nil
}

func validUserName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		ok := r == '_' || r == '-' || r >= 'a' && r <= 'z' ||
			r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	return true
}
