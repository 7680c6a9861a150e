package web

// The durability wiring: every mutating handler journals what it did
// (internal/store) before acknowledging, periodic snapshots fold the
// journals, and NewServer replays whatever a crash left behind.
//
// There is one write path per scope.  An account changes only through
// a userWrite: begin takes the user's write lock, apply and install
// change the tree and queue records, commit appends them, unlocks and
// folds.  Site state (models, mounts, mirrors) journals through
// commitSite.  Both fold a journal into a snapshot once its lag
// reaches the store's threshold.
//
// The invariant this maintains: a mutation applied to the in-memory
// tree is journaled in the same critical section, under the owning
// user's write lock, so journal order equals generation order and
// replay reconstructs the exact pre-crash tree.  This holds even when
// a multi-edit request fails halfway — the edits that did land are
// journaled, because later records' generations build on them.  Once
// a journal write or fsync fails, the store refuses that journal's
// later appends (store.ErrJournalFailed): the handlers report the
// error and serve from memory, and nothing is acknowledged behind a
// torn tail that recovery would cut off.

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
	recovered, err := st.Recover(s.registry, owns)
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

// userWrite is one journaled write to an account, and the only way
// handlers change one.  begin takes the user's write lock; apply and
// install change the account and queue their records in generation
// order; commit appends the batch, releases the lock and folds the
// journal when it is due.
type userWrite struct {
	s    *Server
	u    *User
	recs []store.Record
	err  error // a design that installed but could not be serialized
}

// begin opens a write to u's account under its write lock.  Account
// creation (newUser) begins on a User no other goroutine can see yet.
func (s *Server) begin(u *User) userWrite {
	u.mu.Lock()
	return userWrite{s: s, u: u}
}

// apply runs one tree edit and queues its record, carrying the
// generation the edit produced.  A failed edit leaves the tree as it
// was and queues nothing; edits that landed before it in the same
// write stay queued, because the tree keeps them.
func (w *userWrite) apply(d *sheet.Design, m sheet.Mutation) error {
	if err := d.ApplyMutation(m); err != nil {
		return err
	}
	w.recs = append(w.recs, store.Record{Kind: store.KindMutate, Design: d.Name, Gen: d.Generation(), Mut: &m})
	return nil
}

// install puts a whole design into the account and queues its
// design_put record.  It reports false, changing nothing, when the
// account already holds a design of that name.  A design that cannot
// be serialized still installs, and commit reports the failure.
func (w *userWrite) install(d *sheet.Design) bool {
	if _, exists := w.u.Designs[d.Name]; exists {
		return false
	}
	w.u.Designs[d.Name] = d
	blob, err := d.MarshalJSON()
	if err != nil {
		w.err = fmt.Errorf("serializing design %s: %w", d.Name, err)
		return true
	}
	w.recs = append(w.recs, store.Record{
		Kind: store.KindDesignPut, Design: d.Name,
		Gen: d.Generation(), ID: d.ID(), Blob: blob,
	})
	return true
}

// journal queues a record for an account change that is neither a
// tree edit nor a whole design: account creation, a defaults merge, a
// deletion.
func (w *userWrite) journal(rec store.Record) { w.recs = append(w.recs, rec) }

// commit appends the queued records, releases the write lock and, once
// the user's journal lag reaches the threshold, folds the journal into
// a snapshot under the read lock.  A fold failure is logged, never
// returned: the journal still holds everything.  The returned error
// means the change is live in memory but not durable.
func (w *userWrite) commit() error {
	var lag int
	var err error
	if w.s.store != nil {
		lag, err = w.s.store.Append(w.u.Name, w.recs...)
	}
	w.u.mu.Unlock()
	if w.s.store != nil && w.s.store.SnapshotDue(lag) {
		if serr := w.s.snapshotUser(w.u); serr != nil {
			slog.Warn("web: periodic snapshot failed", "user", w.u.Name, "err", serr)
		}
	}
	if w.err != nil {
		return w.err
	}
	return err
}

// commitSite journals one site-scope record, marshaling payload (when
// non-nil) into its Blob, and folds the site journal when it is due.
// Callers hold no server lock: the fold takes the mount table's and
// the federation index's own.  A failure is logged here and returned;
// callers whose change already serves (a mount, a subscription, a
// mirror drop) discard it, the others refuse on it.
func (s *Server) commitSite(rec store.Record, payload any) error {
	if s.store == nil {
		return nil
	}
	var err error
	if payload != nil {
		rec.Blob, err = json.Marshal(payload)
	}
	lag := 0
	if err == nil {
		lag, err = s.store.Append(store.SiteScope, rec)
	}
	if err != nil {
		slog.Warn("web: journaling site record failed", "kind", rec.Kind, "err", err)
		return err
	}
	if s.store.SnapshotDue(lag) {
		if err := s.snapshotSite(); err != nil {
			slog.Warn("web: periodic site snapshot failed", "err", err)
		}
	}
	return nil
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
	_ = s.commitSite(store.Record{Kind: store.KindMount}, spec)
}
