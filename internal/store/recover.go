package store

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/library"
)

// Account is one recovered user's state: exactly what the web layer's
// per-user shard holds, reconstructed from snapshot plus journal
// suffix.
type Account struct {
	Name     string
	Defaults map[string]map[string]float64
	Designs  map[string]*sheet.Design
}

// RecoveredState is what Recover hands the server to boot from.
type RecoveredState struct {
	// Accounts maps user name to reconstructed state.
	Accounts map[string]*Account
	// Mounts are the remote libraries the pre-crash site had mounted,
	// for the server to re-mount best-effort (keys are never
	// persisted; the running configuration supplies them).
	Mounts []MountSpec
	// Subs are the repository subscriptions to resume: their mirrored
	// models are already registered (from the snapshot blob and
	// repo_model records), so resuming is starting the poll loop, not
	// refetching.
	Subs []SubSpec
	// MirrorOrigins marks which registered models are mirrored
	// publications: local name → publisher base URL.
	MirrorOrigins map[string]string
	// Stats summarizes the recovery for healthz and the boot log.
	Stats RecoveryStats
}

// RecoveryStats is the healthz "last_recovery" block.
type RecoveryStats struct {
	Accounts        int     `json:"accounts"`
	AccountsSkipped int     `json:"accounts_skipped,omitempty"`
	Designs         int     `json:"designs"`
	SnapshotsLoaded int     `json:"snapshots_loaded"`
	RecordsReplayed int     `json:"records_replayed"`
	RecordsSkipped  int     `json:"records_skipped"`
	ReplayErrors    int     `json:"replay_errors"`
	TruncatedBytes  int64   `json:"truncated_bytes"`
	DurationMs      float64 `json:"duration_ms"`
}

// Recover rebuilds the full site state from disk: for every scope,
// load the newest valid snapshot, then replay the journal suffix in
// order, skipping records whose generation the snapshot already
// covers.  Torn tails were truncated when the journals opened; a
// record that fails to apply (a journal written against a model the
// library no longer has, say) is counted and logged, never fatal —
// recovery's contract is that a crashed site boots with everything
// that can be reconstructed, not that it refuses service over what
// cannot.
//
// A non-nil owns restricts recovery to a partition of the user corpus:
// accounts for which it returns false are skipped without even opening
// their journals — their files stay byte-untouched (no tail
// truncation, no snapshot rewrite), so a misconfigured shard cannot
// damage another shard's data and a later boot with the right
// ownership finds everything exactly as the last rightful owner left
// it.  Skipped accounts are counted in Stats.AccountsSkipped.  The
// site scope is always recovered (it is replicated to every shard).
// A nil owns recovers every user.
//
// Call once, after Open and before serving traffic.  Site-scope
// replay registers user-defined equation models into reg.
func (st *Store) Recover(reg *model.Registry, owns func(user string) bool) (*RecoveredState, error) {
	start := time.Now()
	out := &RecoveredState{Accounts: make(map[string]*Account)}

	// Site scope first: designs replayed below may instantiate
	// user-defined models.
	if err := st.recoverSite(reg, out); err != nil {
		return nil, err
	}

	usersDir := filepath.Join(st.dir, "users")
	entries, err := os.ReadDir(usersDir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// Only directories the store wrote count as accounts: a user
		// directory with neither journal nor snapshot holds nothing to
		// recover, and claiming it would conjure an account no user
		// ever created.
		udir := filepath.Join(usersDir, e.Name())
		if !fileExists(filepath.Join(udir, "journal.log")) &&
			!fileExists(filepath.Join(udir, "snapshot.json")) {
			continue
		}
		if owns != nil && !owns(e.Name()) {
			out.Stats.AccountsSkipped++
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		acct, err := st.recoverUser(name, reg, &out.Stats)
		if err != nil {
			return nil, err
		}
		out.Accounts[name] = acct
		out.Stats.Accounts++
		out.Stats.Designs += len(acct.Designs)
	}
	out.Stats.DurationMs = float64(time.Since(start).Microseconds()) / 1e3
	journalLag.Set(float64(st.Lag()))
	return out, nil
}

// fileExists reports whether path names an existing regular file.
func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// loadScope opens one scope's journal and snapshot, decoding the
// journal payloads into records.
func (st *Store) loadScope(user string, stats *RecoveryStats) (snap []byte, recs []Record, err error) {
	st.mu.Lock()
	ul, ok := st.logs[user]
	var payloads [][]byte
	var truncated int64
	if ok {
		// Already open (Recover after appends is not supported, but a
		// double Recover must not re-truncate): no payloads to offer.
		_ = ul
	} else {
		_, payloads, truncated, err = st.openScope(user)
	}
	st.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	stats.TruncatedBytes += truncated
	for _, p := range payloads {
		var r Record
		if err := json.Unmarshal(p, &r); err != nil {
			// An intact frame with undecodable JSON means a writer bug,
			// not disk corruption; skip it rather than lose the suffix.
			stats.ReplayErrors++
			slog.Warn("store: undecodable journal record", "user", user, "err", err)
			continue
		}
		recs = append(recs, r)
	}
	dir, err := st.scopeDir(user)
	if err != nil {
		return nil, nil, err
	}
	snapPayload, ok, err := readSnapshot(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		// A corrupt snapshot cannot be partially trusted; boot from the
		// journal alone and say so loudly.
		stats.ReplayErrors++
		slog.Warn("store: ignoring invalid snapshot", "user", user, "err", err)
		return nil, recs, nil
	}
	if ok {
		stats.SnapshotsLoaded++
		return snapPayload, recs, nil
	}
	return nil, recs, nil
}

// recoverSite replays the site scope: equation models and mounts.
func (st *Store) recoverSite(reg *model.Registry, out *RecoveredState) error {
	snapPayload, recs, err := st.loadScope(siteScope, &out.Stats)
	if err != nil {
		return err
	}
	mounts := make(map[string]MountSpec)
	var order []string
	subs := make(map[string]SubSpec)
	var subOrder []string
	out.MirrorOrigins = make(map[string]string)
	if snapPayload != nil {
		var snap SiteSnapshot
		if err := json.Unmarshal(snapPayload, &snap); err != nil {
			out.Stats.ReplayErrors++
			slog.Warn("store: undecodable site snapshot", "err", err)
		} else {
			if len(snap.Models) > 0 {
				// Mirrored publications are Equation models and ride in
				// the same blob, so they come back without the publisher.
				if _, err := library.LoadEquations(reg, snap.Models); err != nil {
					out.Stats.ReplayErrors++
					slog.Warn("store: site snapshot models failed to load", "err", err)
				}
			}
			for _, m := range snap.Mounts {
				if _, seen := mounts[m.Prefix]; !seen {
					order = append(order, m.Prefix)
				}
				mounts[m.Prefix] = m
			}
			for _, sp := range snap.Subs {
				if _, seen := subs[sp.Prefix]; !seen {
					subOrder = append(subOrder, sp.Prefix)
				}
				subs[sp.Prefix] = sp
			}
			for name, origin := range snap.MirrorOrigins {
				out.MirrorOrigins[name] = origin
			}
		}
	}
	for _, r := range recs {
		out.Stats.RecordsReplayed++
		replayRecords.Inc()
		switch r.Kind {
		case KindModelPut:
			var q library.Equation
			if err := json.Unmarshal(r.Blob, &q); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: bad model_put record", "err", err)
				continue
			}
			if err := q.Compile(); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: recovered model does not compile", "model", q.Name, "err", err)
				continue
			}
			if err := reg.Register(&q); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: recovered model rejected by registry", "model", q.Name, "err", err)
			}
		case KindMount, KindRefresh:
			var m MountSpec
			if err := json.Unmarshal(r.Blob, &m); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: bad mount record", "err", err)
				continue
			}
			if _, seen := mounts[m.Prefix]; !seen {
				order = append(order, m.Prefix)
			}
			mounts[m.Prefix] = m
		case KindUnmount:
			var m MountSpec
			if err := json.Unmarshal(r.Blob, &m); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: bad unmount record", "err", err)
				continue
			}
			delete(mounts, m.Prefix)
		case KindRepoModel:
			// The blob is a canonical publication body: valid Equation
			// JSON minus the name, which the record carries.
			var q library.Equation
			if err := json.Unmarshal(r.Blob, &q); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: bad repo_model record", "model", r.Model, "err", err)
				continue
			}
			q.Name = r.Model
			if err := q.Compile(); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: recovered mirror does not compile", "model", r.Model, "err", err)
				continue
			}
			if err := reg.Register(&q); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: recovered mirror rejected by registry", "model", r.Model, "err", err)
				continue
			}
			out.MirrorOrigins[r.Model] = r.Origin
		case KindRepoDrop:
			reg.Unregister(r.Model)
			delete(out.MirrorOrigins, r.Model)
		case KindRepoSubscribe:
			var sp SubSpec
			if err := json.Unmarshal(r.Blob, &sp); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: bad repo_subscribe record", "err", err)
				continue
			}
			if _, seen := subs[sp.Prefix]; !seen {
				subOrder = append(subOrder, sp.Prefix)
			}
			subs[sp.Prefix] = sp
		case KindRepoUnsubscribe:
			var sp SubSpec
			if err := json.Unmarshal(r.Blob, &sp); err != nil {
				out.Stats.ReplayErrors++
				slog.Warn("store: bad repo_unsubscribe record", "err", err)
				continue
			}
			delete(subs, sp.Prefix)
		default:
			out.Stats.ReplayErrors++
			slog.Warn("store: unexpected record kind in site journal", "kind", r.Kind)
		}
	}
	for _, p := range order {
		if m, ok := mounts[p]; ok {
			out.Mounts = append(out.Mounts, m)
		}
	}
	for _, p := range subOrder {
		if sp, ok := subs[p]; ok {
			out.Subs = append(out.Subs, sp)
		}
	}
	return nil
}

// recoverUser rebuilds one account: snapshot state first, then the
// journal suffix with the duplicate-generation skip that makes replay
// idempotent across a crash between snapshot and truncation.
func (st *Store) recoverUser(name string, reg *model.Registry, stats *RecoveryStats) (*Account, error) {
	snapPayload, recs, err := st.loadScope(name, stats)
	if err != nil {
		return nil, err
	}
	acct := &Account{
		Name:     name,
		Defaults: make(map[string]map[string]float64),
		Designs:  make(map[string]*sheet.Design),
	}
	if snapPayload != nil {
		var snap UserSnapshot
		if err := json.Unmarshal(snapPayload, &snap); err != nil {
			stats.ReplayErrors++
			slog.Warn("store: undecodable user snapshot", "user", name, "err", err)
		} else {
			if snap.Defaults != nil {
				acct.Defaults = snap.Defaults
			}
			for _, ds := range snap.Designs {
				d, err := sheet.ParseDesign(ds.Design, reg)
				if err != nil {
					stats.ReplayErrors++
					slog.Warn("store: snapshot design failed to parse", "user", name, "err", err)
					continue
				}
				d.AdoptID(ds.ID)
				d.AdoptGeneration(ds.Gen)
				acct.Designs[d.Name] = d
			}
		}
	}
	for _, r := range recs {
		stats.RecordsReplayed++
		replayRecords.Inc()
		if err := applyUserRecord(acct, r, reg, stats); err != nil {
			stats.ReplayErrors++
			slog.Warn("store: journal record failed to apply",
				"user", name, "kind", r.Kind, "design", r.Design, "err", err)
		}
	}
	return acct, nil
}

// applyUserRecord replays one user-scope record onto an account.
func applyUserRecord(acct *Account, r Record, reg *model.Registry, stats *RecoveryStats) error {
	switch r.Kind {
	case KindUserCreate:
		return nil
	case KindDefaults:
		if r.Model == "" {
			return fmt.Errorf("defaults record without model")
		}
		m := acct.Defaults[r.Model]
		if m == nil {
			m = make(map[string]float64)
			acct.Defaults[r.Model] = m
		}
		for k, v := range r.Values {
			m[k] = v
		}
		return nil
	case KindDesignPut:
		if cur, ok := acct.Designs[r.Design]; ok && cur.Generation() >= r.Gen {
			stats.RecordsSkipped++
			return nil
		}
		d, err := sheet.ParseDesign(r.Blob, reg)
		if err != nil {
			return err
		}
		d.AdoptID(r.ID)
		d.AdoptGeneration(r.Gen)
		acct.Designs[d.Name] = d
		return nil
	case KindDesignDelete:
		delete(acct.Designs, r.Design)
		return nil
	case KindMutate:
		d, ok := acct.Designs[r.Design]
		if !ok {
			return fmt.Errorf("mutate record for unknown design %q", r.Design)
		}
		if d.Generation() >= r.Gen {
			stats.RecordsSkipped++
			return nil
		}
		if r.Mut == nil {
			return fmt.Errorf("mutate record without mutation")
		}
		if err := d.ApplyMutation(*r.Mut); err != nil {
			return err
		}
		// Pin the replayed generation to the recorded one: replay must
		// land on the exact pre-crash counter, not merely a counter
		// that moved the same number of times.
		d.AdoptGeneration(r.Gen)
		return nil
	}
	return fmt.Errorf("unknown record kind %q", r.Kind)
}
