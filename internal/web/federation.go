package web

// The repository's consuming side: subscriptions.  A subscription
// mirrors a publisher's catalog into the local registry through
// internal/repo's digest-diff sync loop.  Mirrored models are plain
// library.Equation entries — local evaluation, incremental-Play
// cacheable, no remote round-trip ever — and each applied publication
// is journaled (store.KindRepoModel) before the sync pass moves on, so
// a kill -9'd mirror reboots serving everything it had without the
// publisher being reachable.
//
// The wiring deliberately reuses PR 3's machinery: the catalog and
// body fetches ride Remote.do, so sync passes inherit the retry
// policy, the per-site circuit breaker, and the typed
// ErrRemoteUnavailable.  A flapping publisher costs sync passes, never
// evaluations.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"powerplay/internal/library"
	"powerplay/internal/repo"
	"powerplay/internal/store"
)

// ----- Remote: registry client methods (the repo.Source half) -----

// registryPage is the subset of registryResponse the client walks.
type registryPage struct {
	Models     []registryModelJSON `json:"models"`
	NextCursor string              `json:"next_cursor"`
}

// catalogPageLimit is the page size the sync client asks for.
const catalogPageLimit = 500

// RegistryCatalog lists the remote registry, following pagination.
// filter, when non-empty, is passed as ?prefix= so the publisher only
// lists (and the subscriber only mirrors) the matching names.
func (rc *Remote) RegistryCatalog(ctx context.Context, filter string) ([]repo.Entry, error) {
	var out []repo.Entry
	cursor := ""
	for {
		q := url.Values{"limit": {fmt.Sprint(catalogPageLimit)}}
		if filter != "" {
			q.Set("prefix", filter)
		}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		var page registryPage
		if err := rc.do(ctx, http.MethodGet, "/api/v1/registry?"+q.Encode(), nil, &page, true); err != nil {
			return nil, err
		}
		for _, m := range page.Models {
			out = append(out, repo.Entry{Name: m.Name, Digest: m.Digest, Gen: m.PublishedGen})
		}
		if page.NextCursor == "" || len(page.Models) == 0 {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// RegistryFetch retrieves one immutable versioned body.
func (rc *Remote) RegistryFetch(ctx context.Context, name, digest string) ([]byte, error) {
	var raw json.RawMessage
	path := "/api/v1/registry/models/" + url.PathEscape(repo.Ref(name, digest))
	if err := rc.do(ctx, http.MethodGet, path, nil, &raw, true); err != nil {
		return nil, err
	}
	return raw, nil
}

// remoteSource adapts a Remote into the sync engine's Source.
type remoteSource struct {
	rc     *Remote
	filter string
}

func (src remoteSource) Catalog(ctx context.Context) ([]repo.Entry, error) {
	return src.rc.RegistryCatalog(ctx, src.filter)
}

func (src remoteSource) Fetch(ctx context.Context, name, digest string) ([]byte, error) {
	return src.rc.RegistryFetch(ctx, name, digest)
}

// ----- subscription: the repo.Sink half -----

// subscription is one live mirror: a publisher URL, the local prefix
// its models register under, and the syncer that keeps them fresh.
type subscription struct {
	s      *Server
	spec   store.SubSpec
	rc     *Remote
	syncer *repo.Syncer

	cancel context.CancelFunc
	done   chan struct{}

	// mu guards mirrored: publisher name → digest, the sync engine's
	// view of what this subscription holds.
	mu       sync.Mutex
	mirrored map[string]string
}

// localName maps a publisher's model name to this subscription's
// registry name: the literal prefix prepended ("lib." + "sram").
func (sub *subscription) localName(remote string) string { return sub.spec.Prefix + remote }

// Mirrored implements repo.Sink.
func (sub *subscription) Mirrored() map[string]string {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	out := make(map[string]string, len(sub.mirrored))
	for k, v := range sub.mirrored {
		out[k] = v
	}
	return out
}

// Apply implements repo.Sink: compile and register the publication
// under the local name, journal it, and remember its digest.  The
// journal append happens before Apply returns, so a crash between
// passes replays every mirrored model without the publisher.
func (sub *subscription) Apply(name, digest string, body []byte) error {
	local := sub.localName(name)
	q, err := repo.ParseBody(local, body)
	if err != nil {
		return err
	}
	idx := sub.s.pubs
	idx.mu.Lock()
	if origin, mirrored := idx.origins[local]; mirrored && origin != sub.spec.URL {
		idx.mu.Unlock()
		return fmt.Errorf("%q is already mirrored from %s", local, origin)
	} else if !mirrored {
		if _, exists := sub.s.registry.Lookup(local); exists {
			idx.mu.Unlock()
			return fmt.Errorf("mirroring %q would clobber an existing model", local)
		}
	}
	idx.origins[local] = sub.spec.URL
	idx.mu.Unlock()

	if err := sub.s.registry.Register(q); err != nil {
		return err
	}
	if err := sub.s.commitSite(store.Record{
		Kind: store.KindRepoModel, Model: local, Origin: sub.spec.URL, Blob: body,
	}, nil); err != nil {
		return fmt.Errorf("journaling mirror of %q: %w", local, err)
	}
	sub.mu.Lock()
	sub.mirrored[name] = digest
	sub.mu.Unlock()
	return nil
}

// Remove implements repo.Sink: the publisher no longer lists name.
func (sub *subscription) Remove(name string) error {
	local := sub.localName(name)
	sub.s.dropMirror(local)
	sub.mu.Lock()
	delete(sub.mirrored, name)
	sub.mu.Unlock()
	return nil
}

// dropMirror unregisters one mirrored model and journals the drop.
func (s *Server) dropMirror(local string) {
	idx := s.pubs
	idx.mu.Lock()
	delete(idx.origins, local)
	idx.mu.Unlock()
	s.registry.Unregister(local)
	_ = s.commitSite(store.Record{Kind: store.KindRepoDrop, Model: local}, nil)
}

// seedMirrored rebuilds the subscription's publisher-name → digest map
// from the recovered registry, so a restarted mirror's first sync pass
// confirms digests instead of refetching every body (and a dead
// publisher costs nothing at all — the models are already serving).
func (sub *subscription) seedMirrored() {
	idx := sub.s.pubs
	idx.mu.Lock()
	origins := make(map[string]string, len(idx.origins))
	for k, v := range idx.origins {
		origins[k] = v
	}
	idx.mu.Unlock()
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for local, origin := range origins {
		if origin != sub.spec.URL || !strings.HasPrefix(local, sub.spec.Prefix) {
			continue
		}
		m, ok := sub.s.registry.Lookup(local)
		if !ok {
			continue
		}
		q, isEq := m.(*library.Equation)
		if !isEq {
			continue
		}
		if _, digest, err := repo.BodyOf(q); err == nil {
			sub.mirrored[strings.TrimPrefix(local, sub.spec.Prefix)] = digest
		}
	}
}

var _ repo.Sink = (*subscription)(nil)
var _ repo.Source = remoteSource{}

// ----- Server: subscription lifecycle -----

// Subscribe starts mirroring a publisher's registry: models appear
// locally as prefix+name.  The first sync runs synchronously so the
// caller learns what it got; its failure is not fatal — the
// subscription stays installed and the poll loop converges when the
// publisher answers, so Stats.LastError carries any first-pass
// trouble while the returned error means only "the specification is
// unusable, nothing was installed".  filter narrows the remote
// catalog by publisher-name prefix.
func (s *Server) Subscribe(baseURL, prefix, filter string) (repo.Stats, error) {
	spec := store.SubSpec{URL: baseURL, Prefix: prefix, Filter: filter}
	sub, err := s.addSubscription(spec, true)
	if err != nil {
		return repo.Stats{}, err
	}
	st, _ := sub.syncer.SyncOnce(context.Background())
	s.startSubscription(sub)
	return st, nil
}

// addSubscription installs the subscription record (and journals it
// when journal is set) without starting the poll loop.
func (s *Server) addSubscription(spec store.SubSpec, journal bool) (*subscription, error) {
	if spec.URL == "" {
		return nil, fmt.Errorf("web: subscription needs a publisher URL")
	}
	if spec.Prefix == "" {
		return nil, fmt.Errorf("web: subscription needs a local prefix")
	}
	sub := &subscription{
		s:        s,
		spec:     spec,
		rc:       &Remote{BaseURL: spec.URL, Key: s.cfg.Password},
		mirrored: make(map[string]string),
	}
	sub.syncer = repo.NewSyncer(remoteSource{rc: sub.rc, filter: spec.Filter}, sub, spec.Prefix, s.cfg.SyncInterval)
	sub.syncer.OnSync = func(st repo.Stats, err error) {
		if err != nil {
			slog.Debug("repo: sync pass incomplete", "prefix", spec.Prefix, "url", spec.URL, "err", err)
		}
	}
	idx := s.pubs
	idx.mu.Lock()
	if _, dup := idx.subs[spec.Prefix]; dup {
		idx.mu.Unlock()
		return nil, fmt.Errorf("web: prefix %q already subscribed", spec.Prefix)
	}
	idx.subs[spec.Prefix] = sub
	idx.mu.Unlock()
	if journal {
		_ = s.commitSite(store.Record{Kind: store.KindRepoSubscribe}, spec)
	}
	return sub, nil
}

// startSubscription launches the background poll loop.
func (s *Server) startSubscription(sub *subscription) {
	ctx, cancel := context.WithCancel(context.Background())
	sub.cancel = cancel
	sub.done = make(chan struct{})
	go func() {
		defer close(sub.done)
		sub.syncer.Run(ctx)
	}()
}

// stopSubscription cancels the poll loop and waits for it to exit, so
// no sync pass can journal after the caller proceeds.
func stopSubscription(sub *subscription) {
	if sub.cancel == nil {
		return
	}
	sub.cancel()
	<-sub.done
}

// Unsubscribe stops a subscription and drops everything it mirrored.
func (s *Server) Unsubscribe(prefix string) error {
	idx := s.pubs
	idx.mu.Lock()
	sub, ok := idx.subs[prefix]
	if ok {
		delete(idx.subs, prefix)
	}
	idx.mu.Unlock()
	if !ok {
		return fmt.Errorf("web: no subscription on prefix %q", prefix)
	}
	stopSubscription(sub)
	sub.mu.Lock()
	names := make([]string, 0, len(sub.mirrored))
	for n := range sub.mirrored {
		names = append(names, n)
	}
	sub.mirrored = make(map[string]string)
	sub.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		s.dropMirror(sub.localName(n))
	}
	_ = s.commitSite(store.Record{Kind: store.KindRepoUnsubscribe}, sub.spec)
	return nil
}

// ResumeSubscriptions restarts the subscriptions a recovered site had
// and returns their prefixes: their mirrored models are already
// registered (recovery replayed the repo_model records), so this seeds
// the digest maps and starts the poll loops — no refetch, and no
// dependency on any publisher being alive.  Call once after NewServer,
// before or after serving begins.
func (s *Server) ResumeSubscriptions() []string {
	specs := s.recoveredSubs
	s.recoveredSubs = nil
	var resumed []string
	for _, spec := range specs {
		sub, err := s.addSubscription(spec, false)
		if err != nil {
			slog.Warn("web: resuming subscription failed", "prefix", spec.Prefix, "err", err)
			continue
		}
		sub.seedMirrored()
		s.startSubscription(sub)
		resumed = append(resumed, spec.Prefix)
	}
	return resumed
}

// Subscriptions lists the live subscriptions, sorted by prefix, for
// healthz and the mounts listing.
func (s *Server) subscriptions() []*subscription {
	idx := s.pubs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	out := make([]*subscription, 0, len(idx.subs))
	for _, sub := range idx.subs {
		out = append(out, sub)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Prefix < out[j].spec.Prefix })
	return out
}

// stopSubscriptions cancels every poll loop and waits: part of Close,
// before the final snapshot, so no journal write races the shutdown.
func (s *Server) stopSubscriptions() {
	for _, sub := range s.subscriptions() {
		stopSubscription(sub)
	}
}

// healthRepoSub is one subscription's healthz block.
type healthRepoSub struct {
	Prefix     string     `json:"prefix"`
	URL        string     `json:"url"`
	Filter     string     `json:"filter,omitempty"`
	Breaker    string     `json:"breaker"`
	Mirrored   int        `json:"mirrored"`
	SyncCount  uint64     `json:"sync_count"`
	LagSeconds float64    `json:"lag_seconds"`
	LastSync   repo.Stats `json:"last_sync"`
}

// repoHealth builds the healthz "repo" section.
func (s *Server) repoHealth() []healthRepoSub {
	subs := s.subscriptions()
	if len(subs) == 0 {
		return nil
	}
	out := make([]healthRepoSub, 0, len(subs))
	for _, sub := range subs {
		st := sub.syncer.Status()
		sub.mu.Lock()
		mirrored := len(sub.mirrored)
		sub.mu.Unlock()
		out = append(out, healthRepoSub{
			Prefix:     sub.spec.Prefix,
			URL:        sub.spec.URL,
			Filter:     sub.spec.Filter,
			Breaker:    sub.rc.BreakerState().String(),
			Mirrored:   mirrored,
			SyncCount:  st.SyncCount,
			LagSeconds: st.LagSecs,
			LastSync:   st.Last,
		})
	}
	return out
}

// syncInterval resolves the configured poll period for display.
func (s *Server) syncInterval() time.Duration {
	if s.cfg.SyncInterval > 0 {
		return s.cfg.SyncInterval
	}
	return repo.DefaultInterval
}
