package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Options parameterize a Store.
type Options struct {
	// Policy selects the fsync discipline (the -durability flag).
	Policy SyncPolicy
}

// flushInterval paces the background fsync under SyncInterval.
const flushInterval = 100 * time.Millisecond

// snapshotEvery is the per-scope journal length at which the web layer
// is told to fold the journal into a snapshot.
const snapshotEvery = 512

// Store manages one data directory's journals and snapshots: one
// journal+snapshot pair per user under users/<name>/, plus a
// site-scope pair under site/ for state owned by the site rather than
// any user (equation models, remote mounts).
type Store struct {
	dir string
	opt Options

	mu   sync.Mutex
	logs map[string]*userLog // "" is the site scope
	lag  int                 // total un-snapshotted records

	flushOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
	closed    bool
}

// userLog pairs one journal with its snapshot-lag bookkeeping.
type userLog struct {
	j   *Journal
	lag int
}

// SiteScope is the Append/Snapshot user argument addressing the
// site-scope journal.
const SiteScope = ""

// siteScope is the internal alias.
const siteScope = SiteScope

// Open prepares a store over dir, creating the directory tree as
// needed.  Call Recover before serving traffic; journals open lazily
// as users first write.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "users"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "site"), 0o755); err != nil {
		return nil, err
	}
	return &Store{
		dir:  dir,
		opt:  opt,
		logs: make(map[string]*userLog),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Policy returns the configured fsync policy.
func (st *Store) Policy() SyncPolicy { return st.opt.Policy }

// scopeDir maps a user name to its directory.
func (st *Store) scopeDir(user string) (string, error) {
	if user == siteScope {
		return filepath.Join(st.dir, "site"), nil
	}
	if user == "" || strings.ContainsAny(user, "/\\") || strings.Contains(user, "..") {
		return "", fmt.Errorf("store: unusable user name %q", user)
	}
	return filepath.Join(st.dir, "users", user), nil
}

// openScope opens one scope's journal (creating the directory and
// file as needed), truncating any torn tail, and registers it in the
// log table.  It returns the intact record payloads for recovery to
// consume.  Caller holds st.mu.
func (st *Store) openScope(user string) (ul *userLog, payloads [][]byte, truncated int64, err error) {
	dir, err := st.scopeDir(user)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	j, payloads, truncated, err := openJournal(filepath.Join(dir, "journal.log"), st.opt.Policy)
	if err != nil {
		return nil, nil, 0, err
	}
	if truncated > 0 {
		truncationsTotal.Inc()
	}
	ul = &userLog{j: j, lag: len(payloads)}
	st.logs[user] = ul
	st.lag += ul.lag
	return ul, payloads, truncated, nil
}

// logFor returns (creating if needed) the journal for one scope.
// Caller holds st.mu.
func (st *Store) logFor(user string) (*userLog, error) {
	if ul, ok := st.logs[user]; ok {
		return ul, nil
	}
	ul, _, _, err := st.openScope(user)
	return ul, err
}

// Append journals records for one user ("" for site scope) and
// returns that user's journal lag — the records a crash would replay.
// The caller must serialize appends per user (the web layer holds the
// user's lock), so record order in the journal matches generation
// order.
func (st *Store) Append(user string, recs ...Record) (lagAfter int, err error) {
	if len(recs) == 0 {
		st.mu.Lock()
		defer st.mu.Unlock()
		if ul, ok := st.logs[user]; ok {
			return ul.lag, nil
		}
		return 0, nil
	}
	payloads := make([][]byte, len(recs))
	for i := range recs {
		if payloads[i], err = json.Marshal(&recs[i]); err != nil {
			return 0, fmt.Errorf("store: encoding %s record: %w", recs[i].Kind, err)
		}
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return 0, fmt.Errorf("store: closed")
	}
	ul, err := st.logFor(user)
	if err != nil {
		st.mu.Unlock()
		return 0, err
	}
	st.mu.Unlock()
	st.startFlusher()
	if err := ul.j.Append(payloads...); err != nil {
		return 0, err
	}
	st.mu.Lock()
	ul.lag += len(recs)
	st.lag += len(recs)
	lagAfter = ul.lag
	journalLag.Set(float64(st.lag))
	st.mu.Unlock()
	return lagAfter, nil
}

// SnapshotDue reports whether a user's journal lag has reached the
// fold-into-snapshot threshold.
func (st *Store) SnapshotDue(lag int) bool { return lag >= snapshotEvery }

// Lag returns the total number of appended-but-unsnapshotted records
// across all scopes: the healthz "journal lag".
func (st *Store) Lag() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lag
}

// SnapshotUser atomically replaces one user's snapshot and truncates
// the now-covered journal.  The caller must hold the user's lock (at
// least for reading) across building snap *and* this call, so no
// record can land between serialization and truncation.
func (st *Store) SnapshotUser(name string, snap *UserSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot for %q: %w", name, err)
	}
	return st.snapshot(name, payload)
}

// SnapshotSite is SnapshotUser for the site scope.
func (st *Store) SnapshotSite(snap *SiteSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding site snapshot: %w", err)
	}
	return st.snapshot(siteScope, payload)
}

func (st *Store) snapshot(user string, payload []byte) error {
	start := time.Now()
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	ul, err := st.logFor(user)
	if err != nil {
		st.mu.Unlock()
		return err
	}
	st.mu.Unlock()
	dir, _ := st.scopeDir(user)
	if err := writeSnapshot(filepath.Join(dir, "snapshot.json"), payload); err != nil {
		return fmt.Errorf("store: writing snapshot for %q: %w", user, err)
	}
	// The journal's records are now redundant with the snapshot; a
	// crash before this truncate replays them into a state the
	// generation check recognizes as already-applied.
	if err := ul.j.reset(); err != nil {
		return fmt.Errorf("store: resetting journal for %q: %w", user, err)
	}
	st.mu.Lock()
	st.lag -= ul.lag
	ul.lag = 0
	journalLag.Set(float64(st.lag))
	st.mu.Unlock()
	snapshotSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// journalFor exposes one scope's journal for fault-injection tests.
func (st *Store) journalFor(user string) (*Journal, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ul, err := st.logFor(user)
	if err != nil {
		return nil, err
	}
	return ul.j, nil
}

// SetSink interposes a fault-injecting WriteSyncer on one scope's
// journal (see Journal.SetSink).
func (st *Store) SetSink(user string, wrap func(WriteSyncer) WriteSyncer) error {
	j, err := st.journalFor(user)
	if err != nil {
		return err
	}
	j.SetSink(wrap)
	return nil
}

// startFlusher launches the background fsync loop on first append
// under SyncInterval; other policies never need it.
func (st *Store) startFlusher() {
	if st.opt.Policy != SyncInterval {
		return
	}
	st.flushOnce.Do(func() {
		go func() {
			defer close(st.done)
			t := time.NewTicker(flushInterval)
			defer t.Stop()
			for {
				select {
				case <-st.stop:
					return
				case <-t.C:
					st.flushAll()
				}
			}
		}()
	})
}

func (st *Store) flushAll() {
	st.mu.Lock()
	js := make([]*Journal, 0, len(st.logs))
	for _, ul := range st.logs {
		js = append(js, ul.j)
	}
	st.mu.Unlock()
	for _, j := range js {
		_ = j.Sync() // a failure marks j failed; its next Append reports it
	}
}

// Close stops the flusher and syncs and closes every journal.  It
// does not snapshot — that is the server's shutdown step, which runs
// first so a clean exit leaves empty journals.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	js := make([]*Journal, 0, len(st.logs))
	for _, ul := range st.logs {
		js = append(js, ul.j)
	}
	st.mu.Unlock()
	// Stop the flusher if it ever started; otherwise mark done so a
	// second Close cannot block.
	st.flushOnce.Do(func() { close(st.done) })
	select {
	case <-st.done:
	default:
		close(st.stop)
		<-st.done
	}
	var first error
	for _, j := range js {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
