package web

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"powerplay/internal/core/model"
	"powerplay/internal/library"
	"powerplay/internal/store"
)

// durableSite builds a server over dir with per-write fsync, so tests
// can abandon it mid-flight (a simulated crash) and reopen the
// directory.
func durableSite(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	cfg.DataDir = dir
	cfg.Durability = "always"
	s, err := NewServer(cfg, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	jar, _ := cookiejar.New(nil)
	return s, ts, &http.Client{Jar: jar}
}

// fetchWithETag grabs a page plus its validator.
func fetchWithETag(t *testing.T, c *http.Client, url string) (body, etag string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), resp.Header.Get("ETag")
}

// TestCrashRecoveryExactState is the acceptance bar: kill the server
// mid-life (no shutdown, no snapshot), restart over the directory, and
// every account's rendered sheet page must be byte-identical — ETag
// included, so a browser's cached copy revalidates across the crash.
func TestCrashRecoveryExactState(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c := durableSite(t, dir, Config{})
	loginAs(t, ts1, c, "rabaey", "")
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"infopad"}})
	post(t, c, ts1.URL+"/design/infopad/rows", url.Values{
		"action": {"Add"}, "row": {"bank"}, "model": {library.SRAM},
	})
	post(t, c, ts1.URL+"/design/infopad/play", url.Values{
		"row_bank|words": {"4096"}, "glob_vdd": {"3.3"},
	})
	post(t, c, ts1.URL+"/cell/"+library.ArrayMultiplier, url.Values{
		"p_bwA": {"12"}, "action": {"Calculate"},
	})
	preBody, preTag := fetchWithETag(t, c, ts1.URL+"/design/infopad")
	if preTag == "" {
		t.Fatal("sheet page served without an ETag")
	}
	// Crash: the httptest listener dies, the Server is abandoned with
	// its journals un-snapshotted and never Closed.
	ts1.Close()
	if lag := s1.store.Lag(); lag == 0 {
		t.Fatal("test expects un-snapshotted journal records at crash time")
	}

	s2, ts2, c2 := durableSite(t, dir, Config{})
	loginAs(t, ts2, c2, "rabaey", "")
	postBody, postTag := fetchWithETag(t, c2, ts2.URL+"/design/infopad")
	if postTag != preTag {
		t.Errorf("ETag diverged across crash: %s -> %s", preTag, postTag)
	}
	if postBody != preBody {
		t.Error("sheet page bytes diverged across crash")
	}
	stats := s2.lastRecovery
	if stats == nil || stats.RecordsReplayed == 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	// The multiplier defaults rode along.
	_, body := fetch(t, c2, ts2.URL+"/cell/"+library.ArrayMultiplier)
	if !strings.Contains(body, `value="12"`) {
		t.Error("defaults lost across crash")
	}
}

// TestSnapshotFoldingAndCleanShutdown: crossing the store's 512-record
// threshold folds the journal into a snapshot mid-flight, and a clean
// Close leaves empty journals, so the next boot replays nothing.
func TestSnapshotFoldingAndCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c := durableSite(t, dir, Config{})
	loginAs(t, ts1, c, "u", "")
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"d"}})
	// Each Play journals at least a touch record, so the lag grows
	// until the Play that crosses the threshold folds it.
	folded := false
	for i := 0; i < 600 && !folded; i++ {
		before := s1.store.Lag()
		post(t, c, ts1.URL+"/design/d/play", url.Values{"glob_vdd": {"2.5"}})
		folded = s1.store.Lag() < before
	}
	if !folded {
		t.Errorf("journal never folded: lag %d", s1.store.Lag())
	}
	// Records written after the fold are what Close must snapshot.
	for _, v := range []string{"1.5", "3.3", "1.8"} {
		post(t, c, ts1.URL+"/design/d/play", url.Values{"glob_vdd": {v}})
	}
	if lag := s1.store.Lag(); lag == 0 {
		t.Fatal("test expects un-snapshotted journal records before Close")
	}
	preBody, preTag := fetchWithETag(t, c, ts1.URL+"/design/d")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	s2, ts2, c2 := durableSite(t, dir, Config{})
	loginAs(t, ts2, c2, "u", "")
	stats := s2.lastRecovery
	if stats == nil {
		t.Fatal("no recovery stats on a durable site")
	}
	if stats.RecordsReplayed != 0 {
		t.Errorf("clean shutdown left %d journal records", stats.RecordsReplayed)
	}
	if stats.SnapshotsLoaded == 0 {
		t.Error("clean shutdown should boot from snapshots")
	}
	postBody, postTag := fetchWithETag(t, c2, ts2.URL+"/design/d")
	if postTag != preTag || postBody != preBody {
		t.Error("state diverged across clean shutdown")
	}
}

// TestDesignDeleteSurvivesCrash: deletion is a journaled mutation too.
func TestDesignDeleteSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts1, c := durableSite(t, dir, Config{})
	loginAs(t, ts1, c, "u", "")
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"keep"}})
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"drop"}})
	if code, _ := post(t, c, ts1.URL+"/designs/delete", url.Values{"name": {"drop"}}); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := post(t, c, ts1.URL+"/designs/delete", url.Values{"name": {"drop"}}); code != http.StatusNotFound {
		t.Errorf("double delete should 404, got %d", code)
	}
	ts1.Close() // crash

	_, ts2, c2 := durableSite(t, dir, Config{})
	loginAs(t, ts2, c2, "u", "")
	if code, _ := fetch(t, c2, ts2.URL+"/design/keep"); code != http.StatusOK {
		t.Errorf("kept design lost: %d", code)
	}
	if code, _ := fetch(t, c2, ts2.URL+"/design/drop"); code != http.StatusNotFound {
		t.Errorf("deleted design resurrected: %d", code)
	}
}

// TestUserModelSurvivesCrash: the site-scope journal carries equation
// models, and recovered designs can price through them.
func TestUserModelSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts1, c := durableSite(t, dir, Config{})
	loginAs(t, ts1, c, "u", "")
	if code, body := post(t, c, ts1.URL+"/models/new", url.Values{
		"name": {"user.crashproof"}, "csw": {"3p"}, "class": {"computation"},
	}); code != http.StatusOK {
		t.Fatalf("model create: %d %s", code, body)
	}
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"d"}})
	post(t, c, ts1.URL+"/design/d/rows", url.Values{
		"action": {"Add"}, "row": {"x"}, "model": {"user.crashproof"},
	})
	preBody, _ := fetchWithETag(t, c, ts1.URL+"/design/d")
	ts1.Close() // crash

	s2, ts2, c2 := durableSite(t, dir, Config{})
	if _, ok := s2.Registry().Lookup("user.crashproof"); !ok {
		t.Fatal("user model lost across crash")
	}
	loginAs(t, ts2, c2, "u", "")
	postBody, _ := fetchWithETag(t, c2, ts2.URL+"/design/d")
	if postBody != preBody {
		t.Error("design pricing through user model diverged across crash")
	}
}

// TestHealthzDurabilityBlock: the probe reports policy, journal lag
// and the last recovery's stats on a durable site, and omits the
// block on an in-memory one.
func TestHealthzDurabilityBlock(t *testing.T) {
	dir := t.TempDir()
	_, ts1, c := durableSite(t, dir, Config{})
	loginAs(t, ts1, c, "u", "")
	post(t, c, ts1.URL+"/designs", url.Values{"name": {"d"}})
	ts1.Close() // crash, so the next boot has recovery stats to report

	_, ts2, c2 := durableSite(t, dir, Config{})
	_, body := fetch(t, c2, ts2.URL+"/api/v1/healthz")
	var resp struct {
		Durability *struct {
			Policy            string               `json:"policy"`
			JournalLagRecords int                  `json:"journal_lag_records"`
			LastRecovery      *store.RecoveryStats `json:"last_recovery"`
		} `json:"durability"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Durability == nil {
		t.Fatal("healthz missing durability block on a durable site")
	}
	if resp.Durability.Policy != "always" {
		t.Errorf("policy = %q", resp.Durability.Policy)
	}
	if lr := resp.Durability.LastRecovery; lr == nil || lr.RecordsReplayed == 0 {
		t.Errorf("last_recovery = %+v", lr)
	}
	if resp.Durability.JournalLagRecords == 0 {
		t.Error("journal lag should count the replayed, un-snapshotted records")
	}

	// An in-memory site has no durability story to tell.
	_, tsMem, _ := site(t, Config{})
	_, body = fetch(t, c2, tsMem.URL+"/api/v1/healthz")
	if strings.Contains(body, "durability") {
		t.Error("in-memory healthz should omit the durability block")
	}
}

// TestMountsFoldSiteJournal: proxy mounts journal through the same site
// write path as every other site writer, so past the store's 512-record
// threshold the site journal folds into a snapshot instead of growing
// for the life of the process, and the folded mount table recovers.
func TestMountsFoldSiteJournal(t *testing.T) {
	// An empty catalog keeps each mount to one request.
	pub, err := NewServer(Config{}, model.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	pubTS := httptest.NewServer(pub.Handler())
	t.Cleanup(pubTS.Close)
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Durability: "never"}
	s1, err := NewServer(cfg, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	const mounts = 520
	for i := 0; i < mounts; i++ {
		if _, err := s1.MountRemote(pubTS.URL, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if lag := s1.store.Lag(); lag >= 512 {
		t.Errorf("site journal never folded: lag %d after %d mounts", lag, mounts)
	}
	// Crash without Close: the snapshot plus the journal suffix must
	// still hold every mount.
	s2, err := NewServer(cfg, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if got := len(s2.RecoveredMounts()); got != mounts {
		t.Errorf("recovered %d mounts, want %d", got, mounts)
	}
	if st := s2.lastRecovery; st == nil || st.SnapshotsLoaded == 0 {
		t.Errorf("recovery did not start from the folded snapshot: %+v", st)
	}
}

// stallSink holds the first journal write until release closes,
// closing entered when it arrives.
type stallSink struct {
	store.WriteSyncer
	once             *sync.Once
	entered, release chan struct{}
}

func (s stallSink) Write(p []byte) (int, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.WriteSyncer.Write(p)
}

// TestLoginJournalsOutsideServerLock: a first login's journal append
// (which may fsync) runs outside the server-wide lock, so another
// user's requests are answered while it is stuck in the store.
func TestLoginJournalsOutsideServerLock(t *testing.T) {
	s, ts, c := durableSite(t, t.TempDir(), Config{})
	loginAs(t, ts, c, "reader", "")
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	if err := s.store.SetSink("writer", func(ws store.WriteSyncer) store.WriteSyncer {
		return stallSink{ws, &sync.Once{}, entered, release}
	}); err != nil {
		t.Fatal(err)
	}
	loggedIn := make(chan error, 1)
	go func() {
		resp, err := ts.Client().PostForm(ts.URL+"/login", url.Values{"user": {"writer"}})
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("login: %s", resp.Status)
			}
		}
		loggedIn <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the new account never reached its journal")
	}
	read := make(chan error, 1)
	go func() {
		resp, err := c.Get(ts.URL + "/designs")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET /designs: %s", resp.Status)
			}
		}
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(time.Second):
		t.Error("another user's GET /designs waited on a login's journal append")
		defer func() { <-read }()
	}
	releaseOnce.Do(func() { close(release) })
	if err := <-loggedIn; err != nil {
		t.Fatal(err)
	}
}
