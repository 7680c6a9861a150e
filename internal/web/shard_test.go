package web

// Backend-side sharding behavior: ownership refusal, the healthz
// identity block, partitioned recovery, and the replication endpoint.
// Router-in-the-loop fleet tests live in internal/shard.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerplay/internal/core/sheet"
	"powerplay/internal/library"
	"powerplay/internal/shard"
)

// shardUser finds a user name owned by the wanted shard of n.
func shardUser(t *testing.T, want, n int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("user%d", i)
		if shard.NewRing(shard.Members(n)).Pick(name) == want {
			return name
		}
	}
	t.Fatalf("no user maps to shard %d of %d", want, n)
	return ""
}

func TestShardLoginMisdirect(t *testing.T) {
	_, ts, c := site(t, Config{ShardID: 0, ShardCount: 2})
	owned, foreign := shardUser(t, 0, 2), shardUser(t, 1, 2)

	// The owned user logs in normally and gets the routing cookie.
	resp, err := c.PostForm(ts.URL+"/login", url.Values{"user": {owned}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("owned login: %s", resp.Status)
	}
	u, _ := url.Parse(ts.URL)
	gotUserCookie := false
	for _, ck := range c.Jar.Cookies(u) {
		if ck.Name == shard.UserCookie && ck.Value == owned {
			gotUserCookie = true
		}
	}
	if !gotUserCookie {
		t.Errorf("login did not set the %s routing cookie", shard.UserCookie)
	}

	// The foreign user is refused with the full redirect protocol.
	resp, err = http.PostForm(ts.URL+"/login", url.Values{"user": {foreign}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != shard.StatusMisdirected {
		t.Fatalf("foreign login: %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(shard.HeaderOwner); got != "1" {
		t.Errorf("owner header %q, want 1", got)
	}
	if got := resp.Header.Get(shard.HeaderShard); got != "0" {
		t.Errorf("shard header %q, want 0", got)
	}
	if !strings.Contains(string(body), shard.CodeShardRedirect) {
		t.Errorf("421 body lacks envelope code: %s", body)
	}
	// An invalid name is a validation error (403), never a redirect.
	resp, err = http.PostForm(ts.URL+"/login", url.Values{"user": {"bad name!"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("invalid name on sharded backend: %d, want 403", resp.StatusCode)
	}
}

func TestShardCookieMisdirect(t *testing.T) {
	_, ts, _ := site(t, Config{ShardID: 0, ShardCount: 2})
	foreign := shardUser(t, 1, 2)
	req, _ := http.NewRequest("GET", ts.URL+"/menu", nil)
	req.AddCookie(&http.Cookie{Name: shard.UserCookie, Value: foreign})
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != shard.StatusMisdirected {
		t.Fatalf("foreign cookie: %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(shard.HeaderOwner); got != "1" {
		t.Errorf("owner header %q, want 1", got)
	}
	// Every response from a sharded backend carries the shard header —
	// including ordinary pages.
	resp2, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(shard.HeaderShard); got != "0" {
		t.Errorf("front page shard header %q, want 0", got)
	}
}

func TestShardConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ShardID: 2, ShardCount: 2},
		{ShardID: -1, ShardCount: 2},
		{ShardCount: -1},
	} {
		if _, err := NewServer(cfg, library.Standard()); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

func TestShardInstallDesignOwnership(t *testing.T) {
	s, _, _ := site(t, Config{ShardID: 0, ShardCount: 2})
	foreign := shardUser(t, 1, 2)
	d := sheet.NewDesign("x", s.Registry())
	if err := s.InstallDesign(foreign, d); err == nil {
		t.Error("InstallDesign for a foreign user succeeded, want refusal")
	}
	if err := s.InstallDesign(shardUser(t, 0, 2), d); err != nil {
		t.Errorf("InstallDesign for an owned user: %v", err)
	}
}

// TestShardPartitionRecovery: a durable directory written unsharded
// splits cleanly — each shard's boot recovers exactly its partition,
// counts the rest as skipped, and leaves foreign bytes untouched.
func TestShardPartitionRecovery(t *testing.T) {
	dir := t.TempDir()
	u0, u1 := shardUser(t, 0, 2), shardUser(t, 1, 2)

	full, err := NewServer(Config{DataDir: dir, Durability: "always"}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{u0, u1} {
		if _, err := full.login(u); err != nil {
			t.Fatal(err)
		}
		if err := full.InstallDesign(u, sheet.NewDesign("d_"+u, full.Registry())); err != nil {
			t.Fatal(err)
		}
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	foreignSnap := filepath.Join(dir, "users", u1, "snapshot.json")
	before, err := os.ReadFile(foreignSnap)
	if err != nil {
		t.Fatal(err)
	}

	s0, err := NewServer(Config{DataDir: dir, Durability: "always", ShardID: 0, ShardCount: 2},
		library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	s0.mu.RLock()
	_, has0 := s0.users[u0]
	_, has1 := s0.users[u1]
	s0.mu.RUnlock()
	if !has0 || has1 {
		t.Fatalf("shard 0 recovered owned=%v foreign=%v, want true/false", has0, has1)
	}
	lr := s0.lastRecovery
	if lr == nil || lr.Accounts != 1 || lr.AccountsSkipped != 1 {
		t.Fatalf("shard 0 recovery stats: %+v", lr)
	}
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(foreignSnap)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("foreign user's snapshot rewritten by the wrong shard")
	}

	// The other shard finds its user intact.
	s1, err := NewServer(Config{DataDir: dir, Durability: "always", ShardID: 1, ShardCount: 2},
		library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s1.mu.RLock()
	acct := s1.users[u1]
	s1.mu.RUnlock()
	if acct == nil || acct.Designs["d_"+u1] == nil {
		t.Fatal("shard 1 did not recover its partition")
	}
}

// TestShardModelPutEndpoint: the router's replication target accepts
// the model form under the site key and journals it site-scope.
func TestShardModelPutEndpoint(t *testing.T) {
	s, ts, _ := site(t, Config{Password: "sekrit", ShardID: 1, ShardCount: 2})
	form := url.Values{
		"name": {"repl.target"}, "class": {"computation"},
		"params": {"bits 8 1 64 int"}, "csw": {"bits*11f"},
	}
	// Without the key: refused.
	resp, err := http.PostForm(ts.URL+"/api/v1/shard/model", form)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless replication: %d, want 401", resp.StatusCode)
	}
	// With it: registered.
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/shard/model",
		strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("X-PowerPlay-Key", "sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ok map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ok["model"] != "repl.target" {
		t.Fatalf("replication: %d %v", resp.StatusCode, ok)
	}
	if _, found := s.Registry().Lookup("repl.target"); !found {
		t.Error("replicated model not registered")
	}
	// A bad payload answers the envelope, not a panic.
	req2, _ := http.NewRequest("POST", ts.URL+"/api/v1/shard/model",
		strings.NewReader("params="+url.QueryEscape("nonsense")))
	req2.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req2.Header.Set("X-PowerPlay-Key", "sekrit")
	resp, err = http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad_request") {
		t.Errorf("bad replication payload: %d %s", resp.StatusCode, body)
	}
}
