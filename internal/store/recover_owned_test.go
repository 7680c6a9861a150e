package store

import (
	"os"
	"path/filepath"
	"testing"

	"powerplay/internal/library"
)

// TestRecoverOwned: a partition filter recovers exactly the owned
// accounts and leaves foreign journals byte-untouched — no tail
// truncation, no snapshot rewrite, no file claiming.
func TestRecoverOwned(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st := openStore(t, dir)
	for _, user := range []string{"alice", "bob", "carol"} {
		d := newTestDesign(t, reg, "d_"+user)
		if _, err := st.Append(user, Record{Kind: KindUserCreate}, putRecord(t, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "users", "bob", "journal.log")
	before, err := os.ReadFile(foreign)
	if err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	owns := func(user string) bool { return user != "bob" }
	got, err := st2.Recover(library.Standard(), owns)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Accounts) != 2 || got.Accounts["bob"] != nil {
		t.Fatalf("recovered %d accounts (bob=%v), want alice+carol only",
			len(got.Accounts), got.Accounts["bob"])
	}
	for _, user := range []string{"alice", "carol"} {
		acct := got.Accounts[user]
		if acct == nil || acct.Designs["d_"+user] == nil {
			t.Fatalf("account %s not recovered: %+v", user, acct)
		}
	}
	if got.Stats.AccountsSkipped != 1 || got.Stats.Accounts != 2 {
		t.Errorf("stats: skipped=%d accounts=%d, want 1/2",
			got.Stats.AccountsSkipped, got.Stats.Accounts)
	}
	after, err := os.ReadFile(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("foreign journal changed during partitioned recovery")
	}

	// A later recovery with full ownership finds bob exactly as left.
	st3, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	full, err := st3.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Accounts["bob"] == nil || full.Accounts["bob"].Designs["d_bob"] == nil {
		t.Fatal("bob's account lost after partitioned recovery")
	}
}
