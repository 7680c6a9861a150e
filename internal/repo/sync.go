package repo

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Entry is one catalog line: a published model, its content digest,
// and the registry generation at which that digest was published.
type Entry struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Gen    uint64 `json:"published_gen"`
}

// Source is the upstream end of a subscription: a publisher's catalog
// and versioned bodies.  The web layer's implementation rides the
// Remote client, so every call inherits its retry policy and the
// per-site circuit breaker; a dead publisher surfaces here as an
// error, never as a hang.
type Source interface {
	// Catalog lists the publications under the subscribed prefix.
	Catalog(ctx context.Context) ([]Entry, error)
	// Fetch returns the immutable versioned body of name@digest.
	Fetch(ctx context.Context, name, digest string) ([]byte, error)
}

// Sink is the local end: the mirrored slice of this site's model
// registry.  Names are the publisher's names — the sink owns any
// local renaming.  Apply and Remove must be durable (journaled)
// before returning, so a kill -9 between syncs loses nothing.
type Sink interface {
	// Mirrored reports what is currently mirrored from this
	// subscription: publisher name → digest.
	Mirrored() map[string]string
	// Apply installs (or replaces) one publication.  body is
	// canonical and already verified against digest.
	Apply(name, digest string, body []byte) error
	// Remove drops a publication the publisher no longer lists.
	Remove(name string) error
}

// Stats describes one sync pass.
type Stats struct {
	Catalog   int    `json:"catalog"`   // entries the publisher listed
	Applied   int    `json:"applied"`   // bodies fetched and installed
	Removed   int    `json:"removed"`   // local mirrors dropped
	Unchanged int    `json:"unchanged"` // digests already matching
	Failed    int    `json:"failed"`    // entries that errored this pass
	LastError string `json:"last_error,omitempty"`
}

// converged reports whether the mirror now matches the catalog.
func (st Stats) converged() bool { return st.Failed == 0 && st.LastError == "" }

// Status is a point-in-time view of a Syncer for healthz.
type Status struct {
	Prefix    string    `json:"prefix"`
	Last      Stats     `json:"last_sync"`
	LastRun   time.Time `json:"-"`
	LastOK    time.Time `json:"-"`
	LagSecs   float64   `json:"lag_seconds"`
	Mirrored  int       `json:"mirrored"`
	SyncCount uint64    `json:"sync_count"`
}

// Syncer drives one subscription: a digest-diff poll loop that makes
// the Sink converge to the Source's catalog.  One Syncer per
// subscription; Run owns the schedule, SyncOnce is one pass (exported
// so tests and the serve path can force convergence deterministically).
type Syncer struct {
	src      Source
	sink     Sink
	prefix   string // metrics/healthz label
	interval time.Duration

	// OnSync, when set before Run, observes every completed pass —
	// the web layer hangs its logging here.  Called outside the lock.
	OnSync func(Stats, error)

	mu        sync.Mutex
	last      Stats
	lastRun   time.Time
	lastOK    time.Time
	syncCount uint64
}

// DefaultInterval is the poll period when the operator does not set
// one (-sync-interval).  Digest-diff polls are one cheap catalog GET
// when nothing changed, so a short default keeps mirrors fresh.
const DefaultInterval = 5 * time.Second

// NewSyncer builds a Syncer over src and sink.  prefix is the
// subscription's remote prefix, used only as the metrics label.
func NewSyncer(src Source, sink Sink, prefix string, interval time.Duration) *Syncer {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Syncer{src: src, sink: sink, prefix: prefix, interval: interval}
}

// Run polls until ctx is cancelled.  The first pass fires immediately.
func (s *Syncer) Run(ctx context.Context) {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		st, err := s.SyncOnce(ctx)
		if s.OnSync != nil {
			s.OnSync(st, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// SyncOnce runs one digest-diff pass: list the catalog, fetch bodies
// whose digests differ from the mirror's, verify each body against
// its advertised digest, install, and drop mirrors the publisher no
// longer lists.  A failing entry is skipped (counted in Failed) and
// retried next pass; a failing catalog fails the whole pass and the
// mirror keeps serving what it has.
func (s *Syncer) SyncOnce(ctx context.Context) (Stats, error) {
	var st Stats
	entries, err := s.src.Catalog(ctx)
	if err != nil {
		st.LastError = err.Error()
		syncRuns.With("error").Inc()
		s.note(st, false)
		return st, fmt.Errorf("repo: catalog of %q: %w", s.prefix, err)
	}
	st.Catalog = len(entries)

	have := s.sink.Mirrored()
	want := make(map[string]bool, len(entries))
	// Deterministic application order makes test failures and logs
	// reproducible; catalogs are served sorted but we don't rely on it.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	for _, e := range entries {
		if ctx.Err() != nil {
			st.LastError = ctx.Err().Error()
			break
		}
		want[e.Name] = true
		if have[e.Name] == e.Digest {
			st.Unchanged++
			continue
		}
		body, err := s.src.Fetch(ctx, e.Name, e.Digest)
		if err != nil {
			st.Failed++
			st.LastError = fmt.Sprintf("fetch %s@%s: %v", e.Name, e.Digest, err)
			continue
		}
		canonical, err := Canonical(body)
		if err != nil {
			digestChecks.With("mismatch").Inc()
			st.Failed++
			st.LastError = fmt.Sprintf("body of %s@%s: %v", e.Name, e.Digest, err)
			continue
		}
		if got := Digest(canonical); got != e.Digest {
			// The publisher lied (or a middlebox mangled the body):
			// never install content under a digest it doesn't hash to.
			digestChecks.With("mismatch").Inc()
			st.Failed++
			st.LastError = fmt.Sprintf("digest mismatch for %s: catalog %s, body %s", e.Name, e.Digest, got)
			continue
		}
		digestChecks.With("match").Inc()
		if err := s.sink.Apply(e.Name, e.Digest, canonical); err != nil {
			st.Failed++
			st.LastError = fmt.Sprintf("apply %s@%s: %v", e.Name, e.Digest, err)
			continue
		}
		st.Applied++
	}
	for name := range have {
		if want[name] || ctx.Err() != nil {
			continue
		}
		if err := s.sink.Remove(name); err != nil {
			st.Failed++
			st.LastError = fmt.Sprintf("remove %s: %v", name, err)
			continue
		}
		st.Removed++
	}

	mirrorModels.With(s.prefix).Set(float64(st.Applied + st.Unchanged))
	ok := st.converged()
	if ok {
		syncRuns.With("ok").Inc()
	} else {
		syncRuns.With("partial").Inc()
	}
	s.note(st, ok)
	if !ok {
		return st, fmt.Errorf("repo: sync of %q incomplete: %s", s.prefix, st.LastError)
	}
	return st, nil
}

// note records the pass and refreshes the lag gauge.
func (s *Syncer) note(st Stats, converged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.last = st
	s.lastRun = now
	s.syncCount++
	if converged {
		s.lastOK = now
	}
	lag := 0.0
	if !converged && !s.lastOK.IsZero() {
		lag = now.Sub(s.lastOK).Seconds()
	}
	syncLag.With(s.prefix).Set(lag)
}

// Status snapshots the Syncer for healthz.
func (s *Syncer) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	lag := 0.0
	if !s.lastOK.IsZero() && s.lastRun.After(s.lastOK) {
		lag = s.lastRun.Sub(s.lastOK).Seconds()
	}
	return Status{
		Prefix:    s.prefix,
		Last:      s.last,
		LastRun:   s.lastRun,
		LastOK:    s.lastOK,
		LagSecs:   lag,
		Mirrored:  s.last.Applied + s.last.Unchanged,
		SyncCount: s.syncCount,
	}
}
