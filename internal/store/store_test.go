package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/library"
)

// newTestDesign builds a small design the way the web layer does.
func newTestDesign(t *testing.T, reg *model.Registry, name string) *sheet.Design {
	t.Helper()
	d := sheet.NewDesign(name, reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	return d
}

// putRecord serializes a design into the KindDesignPut record the web
// layer journals on creation/import.
func putRecord(t *testing.T, d *sheet.Design) Record {
	t.Helper()
	blob, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return Record{Kind: KindDesignPut, Design: d.Name, Gen: d.Generation(), ID: d.ID(), Blob: blob}
}

// mutate applies m to d and returns the journal record for it.
func mutate(t *testing.T, d *sheet.Design, m sheet.Mutation) Record {
	t.Helper()
	if err := d.ApplyMutation(m); err != nil {
		t.Fatal(err)
	}
	return Record{Kind: KindMutate, Design: d.Name, Gen: d.Generation(), Mut: &m}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// sameDesign asserts byte-identical serialization plus matching
// generation and identity — the ETag triple the web layer validates
// caches with.
func sameDesign(t *testing.T, got, want *sheet.Design) {
	t.Helper()
	gb, _ := got.MarshalJSON()
	wb, _ := want.MarshalJSON()
	if !bytes.Equal(gb, wb) {
		t.Errorf("design bytes diverge:\n got %s\nwant %s", gb, wb)
	}
	if got.Generation() != want.Generation() {
		t.Errorf("generation %d, want %d", got.Generation(), want.Generation())
	}
	if got.ID() != want.ID() {
		t.Errorf("identity %d, want %d", got.ID(), want.ID())
	}
}

// TestRecoverEmptyStore: a store over a fresh directory boots to
// nothing, quietly.
func TestRecoverEmptyStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	rec, err := st.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Accounts) != 0 || rec.Stats.RecordsReplayed != 0 || rec.Stats.SnapshotsLoaded != 0 {
		t.Fatalf("empty store recovered state: %+v", rec.Stats)
	}
}

// TestAppendReplayRoundTrip: journal-only boot (no snapshot ever
// taken) reconstructs designs, defaults, generations and identities.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st := openStore(t, dir)

	d := newTestDesign(t, reg, "infopad")
	recs := []Record{
		{Kind: KindUserCreate},
		putRecord(t, d),
		mutate(t, d, sheet.Mutation{Op: sheet.MutAddRow, Name: "bank", Model: library.SRAM}),
		mutate(t, d, sheet.Mutation{Op: sheet.MutSetParam, Path: "bank", Name: "words", Expr: "2048"}),
		mutate(t, d, sheet.Mutation{Op: sheet.MutSetGlobal, Name: "vdd", Expr: "3.3"}),
		mutate(t, d, sheet.Mutation{Op: sheet.MutTouch}),
		{Kind: KindDefaults, Model: library.SRAM, Values: map[string]float64{"words": 2048}},
	}
	if _, err := st.Append("rabaey", recs...); err != nil {
		t.Fatal(err)
	}
	if got := st.Lag(); got != len(recs) {
		t.Errorf("lag %d, want %d", got, len(recs))
	}
	st.Close()

	st2 := openStore(t, dir)
	rec, err := st2.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	acct := rec.Accounts["rabaey"]
	if acct == nil {
		t.Fatal("account not recovered")
	}
	sameDesign(t, acct.Designs["infopad"], d)
	if acct.Defaults[library.SRAM]["words"] != 2048 {
		t.Errorf("defaults not recovered: %v", acct.Defaults)
	}
	if rec.Stats.RecordsReplayed != len(recs) || rec.Stats.ReplayErrors != 0 {
		t.Errorf("stats: %+v", rec.Stats)
	}
	// Recovery does not consume the journal: lag equals the replayed
	// suffix until a snapshot folds it.
	if st2.Lag() != len(recs) {
		t.Errorf("post-recovery lag %d, want %d", st2.Lag(), len(recs))
	}
}

// TestSnapshotOnlyBoot: after a snapshot the journal is empty; boot
// restores everything from the snapshot alone.
func TestSnapshotOnlyBoot(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st := openStore(t, dir)

	d := newTestDesign(t, reg, "lum")
	if _, err := st.Append("demo", Record{Kind: KindUserCreate}, putRecord(t, d)); err != nil {
		t.Fatal(err)
	}
	blob, _ := d.MarshalJSON()
	snap := &UserSnapshot{
		User:     "demo",
		Defaults: map[string]map[string]float64{"cells.sram": {"words": 512}},
		Designs:  []DesignSnapshot{{ID: d.ID(), Gen: d.Generation(), Design: blob}},
	}
	if err := st.SnapshotUser("demo", snap); err != nil {
		t.Fatal(err)
	}
	if st.Lag() != 0 {
		t.Errorf("lag after snapshot = %d, want 0", st.Lag())
	}
	st.Close()

	st2 := openStore(t, dir)
	rec, err := st2.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.SnapshotsLoaded != 1 || rec.Stats.RecordsReplayed != 0 {
		t.Errorf("snapshot-only boot stats: %+v", rec.Stats)
	}
	acct := rec.Accounts["demo"]
	if acct == nil {
		t.Fatal("account not recovered")
	}
	sameDesign(t, acct.Designs["lum"], d)
	if acct.Defaults["cells.sram"]["words"] != 512 {
		t.Errorf("snapshot defaults lost: %v", acct.Defaults)
	}
}

// TestDuplicateGenerationReplayIdempotence: a crash between snapshot
// and journal truncation leaves records the snapshot already covers;
// replaying them must be a no-op, counted as skips.
func TestDuplicateGenerationReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st := openStore(t, dir)

	d := newTestDesign(t, reg, "dup")
	put := putRecord(t, d)
	m1 := mutate(t, d, sheet.Mutation{Op: sheet.MutSetGlobal, Name: "vdd", Expr: "2.5"})
	m2 := mutate(t, d, sheet.Mutation{Op: sheet.MutAddRow, Name: "core", Model: library.ArrayMultiplier})
	if _, err := st.Append("u", Record{Kind: KindUserCreate}, put, m1, m2); err != nil {
		t.Fatal(err)
	}
	blob, _ := d.MarshalJSON()
	if err := st.SnapshotUser("u", &UserSnapshot{
		User:    "u",
		Designs: []DesignSnapshot{{ID: d.ID(), Gen: d.Generation(), Design: blob}},
	}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the snapshot landed but the journal
	// kept its (now-covered) records — re-append the same records.
	if _, err := st.Append("u", put, m1, m2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	rec, err := st2.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.RecordsSkipped != 3 {
		t.Errorf("skipped %d duplicate records, want 3", rec.Stats.RecordsSkipped)
	}
	if rec.Stats.ReplayErrors != 0 {
		t.Errorf("replay errors: %+v", rec.Stats)
	}
	sameDesign(t, rec.Accounts["u"].Designs["dup"], d)
}

// TestTornTailStoreRecovery: bytes chopped off the journal mid-frame
// cost exactly the torn record; recovery reports the truncation and
// keeps everything acked before it.
func TestTornTailStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st := openStore(t, dir)
	d := newTestDesign(t, reg, "torn")
	if _, err := st.Append("u", putRecord(t, d),
		mutate(t, d, sheet.Mutation{Op: sheet.MutSetGlobal, Name: "vdd", Expr: "1.8"})); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Tear the last 7 bytes off the journal: mid-record, as a power
	// cut would.
	jp := filepath.Join(dir, "users", "u", "journal.log")
	blob, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, blob[:len(blob)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	rec, err := st2.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.TruncatedBytes == 0 {
		t.Error("truncation not reported")
	}
	got := rec.Accounts["u"].Designs["torn"]
	if got == nil {
		t.Fatal("design lost with its journal tail")
	}
	// The torn mutation is gone; the put survives.
	if src := got.Root.Global("vdd").Source(); src != "1.5" {
		t.Errorf("torn record leaked through: vdd = %q", src)
	}
}

// TestSiteScopeRecovery: user-defined equation models and mounts
// replay from the site journal; models register into the registry.
func TestSiteScopeRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	q := &library.Equation{Name: "user.gizmo", Csw: "1p", Class: "computation"}
	if err := q.Compile(); err != nil {
		t.Fatal(err)
	}
	qb, err := jsonMarshal(q)
	if err != nil {
		t.Fatal(err)
	}
	mount, err := jsonMarshal(MountSpec{URL: "http://ma.site", Prefix: "ma"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(siteScope,
		Record{Kind: KindModelPut, Model: q.Name, Blob: qb},
		Record{Kind: KindMount, Blob: mount},
	); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	reg := library.Standard()
	rec, err := st2.Recover(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup("user.gizmo"); !ok {
		t.Error("equation model not re-registered")
	}
	if len(rec.Mounts) != 1 || rec.Mounts[0].Prefix != "ma" {
		t.Errorf("mounts = %+v", rec.Mounts)
	}
}

// TestReplayBudget10k: the acceptance bar — recovering a 10k-record
// journal completes in under a second.
func TestReplayBudget10k(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDesign(t, reg, "big")
	d.Root.MustAddChild("core", library.ArrayMultiplier)
	const n = 10_000
	recs := make([]Record, 0, n+1)
	recs = append(recs, putRecord(t, d))
	for i := 0; i < n; i++ {
		recs = append(recs, mutate(t, d, sheet.Mutation{
			Op: sheet.MutSetGlobal, Name: "vdd",
			Expr: fmt.Sprintf("%.3f", 1.0+float64(i%200)/100),
		}))
	}
	if _, err := st.Append("u", recs...); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	start := time.Now()
	rec, err := st2.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rec.Stats.RecordsReplayed != n+1 {
		t.Fatalf("replayed %d records, want %d", rec.Stats.RecordsReplayed, n+1)
	}
	sameDesign(t, rec.Accounts["u"].Designs["big"], d)
	if elapsed > time.Second {
		t.Errorf("10k-record recovery took %v, budget 1s", elapsed)
	}
	t.Logf("10k-record recovery: %v (%.0f records/s)", elapsed, float64(n+1)/elapsed.Seconds())
}

// TestStoreFaultInjectedAppend: an append through a torn WriteSyncer
// errors out, and the next boot recovers every record acked before
// the fault with the torn frame truncated.
func TestStoreFaultInjectedAppend(t *testing.T) {
	dir := t.TempDir()
	reg := library.Standard()
	st := openStore(t, dir)
	d := newTestDesign(t, reg, "faulty")
	if _, err := st.Append("u", putRecord(t, d)); err != nil {
		t.Fatal(err)
	}
	if err := st.SetSink("u", func(ws WriteSyncer) WriteSyncer {
		return &faultSyncer{inner: ws, tearAfter: 3}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("u",
		mutate(t, d, sheet.Mutation{Op: sheet.MutSetGlobal, Name: "vdd", Expr: "9"})); err == nil {
		t.Fatal("append through torn syncer should error")
	}

	st2 := openStore(t, dir)
	rec, err := st2.Recover(library.Standard(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Accounts["u"].Designs["faulty"]
	if got == nil {
		t.Fatal("acked design lost")
	}
	if src := got.Root.Global("vdd").Source(); src != "1.5" {
		t.Errorf("unacked record survived the tear: vdd = %q", src)
	}
	if rec.Stats.TruncatedBytes == 0 {
		t.Error("torn frame not reported as truncated")
	}
}

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }
