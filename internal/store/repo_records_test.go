package store

import (
	"encoding/json"
	"testing"

	"powerplay/internal/library"
)

// TestRepoRecordReplay: the PR 10 site-scope kinds — mirrored
// publications, subscriptions, drops and unmounts — all replay from
// the journal without the publisher being reachable.
func TestRepoRecordReplay(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)

	// A canonical publication body: Equation JSON without the name.
	body := json.RawMessage(`{"class":"computation","csw":"2e-12","title":"mirrored gizmo"}`)
	sub, _ := json.Marshal(SubSpec{URL: "http://pub.site", Prefix: "lib.", Filter: "rf."})
	gone, _ := json.Marshal(SubSpec{Prefix: "dead."})
	mount, _ := json.Marshal(MountSpec{URL: "http://ma.site", Prefix: "ma"})
	unmount, _ := json.Marshal(MountSpec{Prefix: "ma"})
	if _, err := st.Append(siteScope,
		Record{Kind: KindRepoSubscribe, Blob: sub},
		Record{Kind: KindRepoSubscribe, Blob: gone},
		Record{Kind: KindRepoModel, Model: "lib.gizmo", Origin: "http://pub.site", Blob: body},
		Record{Kind: KindRepoModel, Model: "lib.doomed", Origin: "http://pub.site", Blob: body},
		Record{Kind: KindRepoDrop, Model: "lib.doomed"},
		Record{Kind: KindRepoUnsubscribe, Blob: gone},
		Record{Kind: KindMount, Blob: mount},
		Record{Kind: KindUnmount, Blob: unmount},
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
	if rec.Stats.ReplayErrors != 0 {
		t.Fatalf("replay errors: %+v", rec.Stats)
	}
	m, ok := reg.Lookup("lib.gizmo")
	if !ok {
		t.Fatal("mirrored model not re-registered")
	}
	if q, ok := m.(*library.Equation); !ok || q.Title != "mirrored gizmo" {
		t.Fatalf("recovered model = %#v", m)
	}
	if _, ok := reg.Lookup("lib.doomed"); ok {
		t.Error("dropped mirror still registered")
	}
	if rec.MirrorOrigins["lib.gizmo"] != "http://pub.site" {
		t.Errorf("origins = %v", rec.MirrorOrigins)
	}
	if _, ok := rec.MirrorOrigins["lib.doomed"]; ok {
		t.Error("dropped mirror kept its origin")
	}
	if len(rec.Subs) != 1 || rec.Subs[0].URL != "http://pub.site" ||
		rec.Subs[0].Prefix != "lib." || rec.Subs[0].Filter != "rf." {
		t.Errorf("subs = %+v", rec.Subs)
	}
	if len(rec.Mounts) != 0 {
		t.Errorf("unmounted prefix survived: %+v", rec.Mounts)
	}
}

// TestRepoSnapshotRoundTrip: subscriptions and mirror origins survive
// the snapshot path (the models themselves ride the DumpEquations
// blob like any other site model).
func TestRepoSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)

	reg := library.Standard()
	q := &library.Equation{Name: "lib.gizmo", Csw: "2e-12", Title: "mirrored gizmo"}
	if err := q.Compile(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(q); err != nil {
		t.Fatal(err)
	}
	models, err := library.DumpEquations(reg)
	if err != nil {
		t.Fatal(err)
	}
	snap := SiteSnapshot{
		Models:        models,
		Subs:          []SubSpec{{URL: "http://pub.site", Prefix: "lib."}},
		MirrorOrigins: map[string]string{"lib.gizmo": "http://pub.site"},
	}
	if err := st.SnapshotSite(&snap); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	reg2 := library.Standard()
	rec, err := st2.Recover(reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg2.Lookup("lib.gizmo"); !ok {
		t.Error("snapshot mirror not re-registered")
	}
	if rec.MirrorOrigins["lib.gizmo"] != "http://pub.site" {
		t.Errorf("origins = %v", rec.MirrorOrigins)
	}
	if len(rec.Subs) != 1 || rec.Subs[0].Prefix != "lib." {
		t.Errorf("subs = %+v", rec.Subs)
	}
}
