package web

// The durability wiring: every mutating handler journals what it did
// (internal/store) before acknowledging, periodic snapshots fold the
// journals, and NewServer replays whatever a crash left behind.
//
// The invariant the handlers maintain: a mutation applied to the
// in-memory tree is journaled in the same critical section, under the
// owning user's write lock, so journal order equals generation order
// and replay reconstructs the exact pre-crash tree.  This holds even
// when a multi-edit request fails halfway — the edits that did land
// are journaled, because later records' generations build on them.

import (
	"encoding/json"
	"fmt"
	"log/slog"

	"powerplay/internal/core/sheet"
	"powerplay/internal/library"
	"powerplay/internal/store"
)

// openStore opens the data directory's journal store and recovers the
// pre-crash state into the account map.  Called from NewServer when
// DataDir is set; the server is not yet serving, so no locks needed.
func (s *Server) openStore() error {
	policy, err := store.ParsePolicy(s.cfg.Durability)
	if err != nil {
		return fmt.Errorf("web: %w", err)
	}
	st, err := store.Open(s.cfg.DataDir, store.Options{Policy: policy})
	if err != nil {
		return err
	}
	// On a sharded backend, recover only this shard's partition:
	// foreign journals are left byte-untouched, and boot replay costs
	// ~1/N of the corpus instead of all of it.
	var owns func(string) bool
	if s.ring != nil {
		owns = s.Owns
	}
	recovered, err := st.RecoverOwned(s.registry, owns)
	if err != nil {
		st.Close()
		return fmt.Errorf("web: recovering %s: %w", s.cfg.DataDir, err)
	}
	s.store = st
	for name, acct := range recovered.Accounts {
		if !validUserName(name) {
			slog.Warn("web: skipping recovered account with unusable name", "user", name)
			continue
		}
		s.users[name] = &User{Name: acct.Name, Defaults: acct.Defaults, Designs: acct.Designs}
	}
	s.mounts = recovered.Mounts
	// Federation state: mirrored models are already re-registered (the
	// replay above), so only the bookkeeping lands here.  The sync
	// loops themselves start when the boot sequence calls
	// ResumeSubscriptions — never during construction, so tests and
	// library users get no surprise goroutines.
	for name, origin := range recovered.MirrorOrigins {
		s.pubs.origins[name] = origin
	}
	s.recoveredSubs = recovered.Subs
	s.lastRecovery = &recovered.Stats
	if recovered.Stats.RecordsReplayed > 0 || recovered.Stats.SnapshotsLoaded > 0 ||
		len(recovered.Accounts) > 0 {
		slog.Info("recovered durable state",
			"accounts", recovered.Stats.Accounts,
			"designs", recovered.Stats.Designs,
			"snapshots", recovered.Stats.SnapshotsLoaded,
			"records", recovered.Stats.RecordsReplayed,
			"skipped", recovered.Stats.RecordsSkipped,
			"errors", recovered.Stats.ReplayErrors,
			"truncated_bytes", recovered.Stats.TruncatedBytes,
			"dur_ms", recovered.Stats.DurationMs)
	}
	return nil
}

// mutRecord journals one applied tree edit.  Call it immediately after
// a successful ApplyMutation (same lock), so Gen captures the
// generation the edit produced.
func mutRecord(d *sheet.Design, m sheet.Mutation) store.Record {
	mm := m
	return store.Record{Kind: store.KindMutate, Design: d.Name, Gen: d.Generation(), Mut: &mm}
}

// designRecord journals a whole design (creation, import, install).
func designRecord(d *sheet.Design) (store.Record, error) {
	blob, err := d.MarshalJSON()
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{
		Kind: store.KindDesignPut, Design: d.Name,
		Gen: d.Generation(), ID: d.ID(), Blob: blob,
	}, nil
}

// appendUser journals records for one user and returns the journal
// lag.  The caller must hold the user's write lock (or, for a user
// being created under Server.mu, ensure no concurrent writer exists),
// so journal order matches generation order.  No-op without a store.
func (s *Server) appendUser(name string, recs ...store.Record) (int, error) {
	if s.store == nil {
		return 0, nil
	}
	return s.store.Append(name, recs...)
}

// appendSite journals site-scope records (models, mounts).
func (s *Server) appendSite(recs ...store.Record) (int, error) {
	if s.store == nil {
		return 0, nil
	}
	return s.store.Append(store.SiteScope, recs...)
}

// maybeSnapshotUser folds a user's journal into a snapshot once the
// lag crosses the threshold.  Called after the mutation's lock is
// released; failure is logged, never surfaced — the journal still
// holds everything.
func (s *Server) maybeSnapshotUser(u *User, lag int) {
	if s.store == nil || !s.store.SnapshotDue(lag) {
		return
	}
	if err := s.snapshotUser(u); err != nil {
		slog.Warn("web: periodic snapshot failed", "user", u.Name, "err", err)
	}
}

// maybeSnapshotSite is maybeSnapshotUser for the site scope.
func (s *Server) maybeSnapshotSite(lag int) {
	if s.store == nil || !s.store.SnapshotDue(lag) {
		return
	}
	if err := s.snapshotSite(); err != nil {
		slog.Warn("web: periodic site snapshot failed", "err", err)
	}
}

// snapshotUser writes one user's full state as a snapshot and
// truncates the journal it covers.  The read lock is held across
// serialization *and* the store call, so no record can land between
// the two (see store.SnapshotUser's contract).
func (s *Server) snapshotUser(u *User) error {
	if s.store == nil {
		return nil
	}
	u.mu.RLock()
	defer u.mu.RUnlock()
	snap := &store.UserSnapshot{User: u.Name, Defaults: u.Defaults}
	for _, d := range u.Designs {
		blob, err := d.MarshalJSON()
		if err != nil {
			return fmt.Errorf("serializing design %s: %w", d.Name, err)
		}
		snap.Designs = append(snap.Designs, store.DesignSnapshot{
			ID: d.ID(), Gen: d.Generation(), Design: blob,
		})
	}
	return s.store.SnapshotUser(u.Name, snap)
}

// snapshotSite writes the site-scope snapshot: user-defined equation
// models (mirrored publications ride the same blob), the mount table,
// and the federation state (subscriptions and mirror origins).
func (s *Server) snapshotSite() error {
	if s.store == nil {
		return nil
	}
	blob, err := library.DumpEquations(s.registry)
	if err != nil {
		return fmt.Errorf("serializing site models: %w", err)
	}
	s.mu.RLock()
	mounts := append([]store.MountSpec(nil), s.mounts...)
	s.mu.RUnlock()
	subs, origins := s.mirrorSnapshot()
	return s.store.SnapshotSite(&store.SiteSnapshot{
		Models: blob, Mounts: mounts, Subs: subs, MirrorOrigins: origins,
	})
}

// Close drains the durability layer: a final snapshot of every user
// and the site, then journal close.  A clean exit therefore leaves
// empty journals and fresh snapshots; an error means the journals
// still hold unsnapshotted records (replayable on next boot) and the
// caller should exit loudly and non-zero.
func (s *Server) Close() error {
	// Stop the subscription sync loops first, so no background pass
	// journals a mirror while the final snapshots run.
	s.stopSubscriptions()
	if s.store == nil {
		return nil
	}
	var firstErr error
	s.mu.RLock()
	users := make([]*User, 0, len(s.users))
	for _, u := range s.users {
		users = append(users, u)
	}
	s.mu.RUnlock()
	for _, u := range users {
		if err := s.snapshotUser(u); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("snapshotting user %s: %w", u.Name, err)
		}
	}
	if err := s.snapshotSite(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("snapshotting site state: %w", err)
	}
	if err := s.store.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("closing journals: %w", err)
	}
	return firstErr
}

// LastRecovery returns the boot recovery's statistics (nil when the
// server runs without a data directory).
func (s *Server) LastRecovery() *store.RecoveryStats { return s.lastRecovery }

// JournalLag returns the records a crash right now would replay.
func (s *Server) JournalLag() int {
	if s.store == nil {
		return 0
	}
	return s.store.Lag()
}

// RecoveredMounts lists the remote-library mounts the pre-crash site
// had, for the boot sequence to re-mount best-effort (the store never
// persists site keys; the running configuration supplies them).
func (s *Server) RecoveredMounts() []store.MountSpec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]store.MountSpec(nil), s.mounts...)
}

// MountRemote mounts a remote library under prefix using the site's
// configured password as the key, records the mount in the site
// journal, and returns the number of models mounted.
func (s *Server) MountRemote(url, prefix string) (int, error) {
	n, err := Mount(s.registry, &Remote{BaseURL: url, Key: s.cfg.Password}, prefix)
	if err != nil {
		return 0, err
	}
	s.recordMount(url, prefix)
	return n, nil
}

// recordMount folds a mount into the server's mount table and
// journals it.  Journal failure is logged, not surfaced: the mount
// itself succeeded and the site is serving it.
func (s *Server) recordMount(url, prefix string) {
	spec := store.MountSpec{URL: url, Prefix: prefix}
	s.mu.Lock()
	replaced := false
	for i := range s.mounts {
		if s.mounts[i].Prefix == prefix {
			s.mounts[i] = spec
			replaced = true
			break
		}
	}
	if !replaced {
		s.mounts = append(s.mounts, spec)
	}
	s.mu.Unlock()
	blob, err := json.Marshal(spec)
	if err == nil {
		_, err = s.appendSite(store.Record{Kind: store.KindMount, Blob: blob})
	}
	if err != nil {
		slog.Warn("web: journaling mount failed", "prefix", prefix, "err", err)
	}
}
