package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestJournal(t *testing.T, path string, policy SyncPolicy) (*Journal, [][]byte, int64) {
	t.Helper()
	j, payloads, truncated, err := openJournal(path, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, payloads, truncated
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, payloads, _ := openTestJournal(t, path, SyncAlways)
	if len(payloads) != 0 {
		t.Fatalf("fresh journal returned %d records", len(payloads))
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	if err := j.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(want[1], want[2]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, got, truncated := openTestJournal(t, path, SyncAlways)
	if truncated != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", truncated)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestJournalEmptyFile: an empty journal (or no file at all) recovers
// to zero records with zero truncation.
func TestJournalEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	_, payloads, truncated := openTestJournal(t, path, SyncNever)
	if len(payloads) != 0 || truncated != 0 {
		t.Fatalf("empty journal: %d records, %d truncated", len(payloads), truncated)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("open should have created an empty file: %v", err)
	}
}

// writeFrames builds a journal file from whole frames.
func writeFrames(t *testing.T, path string, payloads ...[]byte) []byte {
	t.Helper()
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestJournalTornTail: a partial frame at the end — from a torn header
// down to a single stray byte — is truncated; the intact prefix
// survives and the file shrinks to the last valid frame boundary.
func TestJournalTornTail(t *testing.T) {
	full := [][]byte{[]byte(`{"n":1}`), []byte(`{"n":2}`)}
	for _, cut := range []int{1, frameHeader - 1, frameHeader, frameHeader + 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.log")
			buf := writeFrames(t, path, full...)
			torn := append(append([]byte{}, buf...), appendFrame(nil, []byte(`{"n":3}`))[:cut]...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			_, payloads, truncated := openTestJournal(t, path, SyncNever)
			if len(payloads) != 2 {
				t.Fatalf("recovered %d records, want 2", len(payloads))
			}
			if truncated != int64(cut) {
				t.Errorf("truncated %d bytes, want %d", truncated, cut)
			}
			if fi, _ := os.Stat(path); fi.Size() != int64(len(buf)) {
				t.Errorf("file size %d after truncate, want %d", fi.Size(), len(buf))
			}
		})
	}
}

// TestJournalZeroLengthTornTail: a file ending exactly on a frame
// boundary is not a torn tail at all — nothing is truncated — and a
// tail that is only a zero-length header (a frame that never got its
// payload length written) is cut without touching the intact prefix.
func TestJournalZeroLengthTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	buf := writeFrames(t, path, []byte(`{"n":1}`))
	_, payloads, truncated := openTestJournal(t, path, SyncNever)
	if len(payloads) != 1 || truncated != 0 {
		t.Fatalf("boundary-aligned journal: %d records, %d truncated", len(payloads), truncated)
	}

	// A tail of zero bytes declared: header present, length zero —
	// scanFrames must reject the frame (no writer produces it) and
	// truncate from there.
	zeroHdr := append(append([]byte{}, buf...), make([]byte, frameHeader)...)
	if err := os.WriteFile(path, zeroHdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, payloads, truncated = openTestJournal(t, path, SyncNever)
	if len(payloads) != 1 || truncated != frameHeader {
		t.Fatalf("zero-length frame: %d records, %d truncated (want 1, %d)",
			len(payloads), truncated, frameHeader)
	}
}

// TestJournalCRCFlipMiddle: a bit flip inside a middle record's
// payload invalidates that frame and everything after it — frame
// boundaries downstream of a lying frame cannot be trusted — so the
// journal truncates at the last frame before the corruption.
func TestJournalCRCFlipMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	recs := [][]byte{[]byte(`{"n":1}`), []byte(`{"n":2}`), []byte(`{"n":3}`)}
	buf := writeFrames(t, path, recs...)
	// Flip one bit in the middle record's payload.
	middlePayload := frameHeader + len(recs[0]) + frameHeader
	buf[middlePayload+2] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, payloads, truncated := openTestJournal(t, path, SyncNever)
	if len(payloads) != 1 {
		t.Fatalf("recovered %d records, want only the one before the flip", len(payloads))
	}
	if !bytes.Equal(payloads[0], recs[0]) {
		t.Errorf("surviving record = %q, want %q", payloads[0], recs[0])
	}
	wantCut := int64(len(buf)) - int64(frameHeader+len(recs[0]))
	if truncated != wantCut {
		t.Errorf("truncated %d bytes, want %d", truncated, wantCut)
	}
}

// TestJournalInsaneLength: a frame declaring an absurd payload length
// reads as corruption, not as an allocation request.
func TestJournalInsaneLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	buf := writeFrames(t, path, []byte(`{"n":1}`))
	bad := append(append([]byte{}, buf...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x')
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, payloads, truncated := openTestJournal(t, path, SyncNever)
	if len(payloads) != 1 || truncated != 9 {
		t.Fatalf("got %d records, %d truncated; want 1, 9", len(payloads), truncated)
	}
}

// faultSyncer is the fault-injecting WriteSyncer (in the spirit of
// internal/faultnet): it forwards writes to the real file but can tear
// a write after N bytes — the moment the power went out — and fail
// sync barriers afterwards.
type faultSyncer struct {
	inner     WriteSyncer
	tearAfter int // bytes to pass through before tearing; -1 = off
	written   int
	torn      bool
}

func (f *faultSyncer) Write(p []byte) (int, error) {
	if f.torn {
		return 0, fmt.Errorf("faultsyncer: device gone")
	}
	if f.tearAfter >= 0 && f.written+len(p) > f.tearAfter {
		keep := f.tearAfter - f.written
		if keep > 0 {
			f.inner.Write(p[:keep])
			f.written += keep
		}
		f.torn = true
		return keep, fmt.Errorf("faultsyncer: torn write after %d bytes", f.written)
	}
	n, err := f.inner.Write(p)
	f.written += n
	return n, err
}

func (f *faultSyncer) Sync() error {
	if f.torn {
		return fmt.Errorf("faultsyncer: device gone")
	}
	return f.inner.Sync()
}

// TestJournalTornWriteRecovery: a write torn mid-frame by the fault
// syncer leaves a tail the next open truncates; every record acked
// before the tear survives.
func TestJournalTornWriteRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _, _ := openTestJournal(t, path, SyncAlways)
	good := []byte(`{"ok":true}`)
	if err := j.Append(good); err != nil {
		t.Fatal(err)
	}
	// Tear the next frame 5 bytes in (mid-header).
	j.SetSink(func(ws WriteSyncer) WriteSyncer {
		return &faultSyncer{inner: ws, tearAfter: 5}
	})
	if err := j.Append([]byte(`{"lost":true}`)); err == nil {
		t.Fatal("torn append should error")
	}
	// The torn journal on disk: [good frame][5 bytes of the next].
	// Close via the raw file (the sink now errors), then reopen.
	j.f.Close()
	j.f = nil

	_, payloads, truncated := openTestJournal(t, path, SyncAlways)
	if len(payloads) != 1 || !bytes.Equal(payloads[0], good) {
		t.Fatalf("acked record lost: got %d records", len(payloads))
	}
	if truncated != 5 {
		t.Errorf("truncated %d bytes, want the 5 torn ones", truncated)
	}
}

// TestJournalRefusesAppendAfterFailedWrite: after one write is cut
// short (or one fsync fails), the journal refuses every later append,
// even once the sink works again, so nothing is acknowledged behind
// the torn tail; a reopen recovers exactly the acknowledged prefix.
func TestJournalRefusesAppendAfterFailedWrite(t *testing.T) {
	for _, tc := range []struct {
		name      string
		policy    SyncPolicy
		fault     onceFault
		truncated int64
	}{
		{"short write", SyncAlways, onceFault{shortWrite: 5}, 5},
		{"failed fsync", SyncInterval, onceFault{failSync: true}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.log")
			j, _, _ := openTestJournal(t, path, tc.policy)
			acked := []byte(`{"a":1}`)
			if err := j.Append(acked); err != nil {
				t.Fatal(err)
			}
			fault := tc.fault
			j.SetSink(func(ws WriteSyncer) WriteSyncer {
				fault.inner = ws
				return &fault
			})
			if tc.fault.shortWrite > 0 {
				if err := j.Append([]byte(`{"b":2}`)); err == nil {
					t.Fatal("short write acknowledged")
				}
			} else if err := j.Sync(); err == nil {
				t.Fatal("failed fsync reported success")
			}
			err := j.Append([]byte(`{"c":3}`))
			if !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("append after the failure: err = %v, want ErrJournalFailed", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, payloads, truncated := openTestJournal(t, path, tc.policy)
			if len(payloads) != 1 || !bytes.Equal(payloads[0], acked) {
				t.Errorf("reopen recovered %q, want exactly the acknowledged %q", payloads, acked)
			}
			if truncated != tc.truncated {
				t.Errorf("truncated %d bytes, want %d", truncated, tc.truncated)
			}
		})
	}
}

// onceFault fails its sink once, then passes everything through: a
// write cut to shortWrite bytes, or one failed fsync.
type onceFault struct {
	inner      WriteSyncer
	shortWrite int
	failSync   bool
}

func (f *onceFault) Write(p []byte) (int, error) {
	if n := f.shortWrite; n > 0 && n < len(p) {
		f.shortWrite = 0
		f.inner.Write(p[:n])
		return n, fmt.Errorf("oncefault: write cut after %d bytes", n)
	}
	return f.inner.Write(p)
}

func (f *onceFault) Sync() error {
	if f.failSync {
		f.failSync = false
		return fmt.Errorf("oncefault: fsync failed")
	}
	return f.inner.Sync()
}

// TestSnapshotAtomicRoundTrip: snapshots survive their own framing and
// a corrupt snapshot is rejected wholesale.
func TestSnapshotAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	if _, ok, err := readSnapshot(path); ok || err != nil {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
	payload := []byte(`{"user":"x"}`)
	if err := writeSnapshot(path, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readSnapshot(path)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v err=%v got=%q", ok, err, got)
	}
	// Overwrite keeps exactly one valid frame.
	payload2 := []byte(`{"user":"y","more":true}`)
	if err := writeSnapshot(path, payload2); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = readSnapshot(path)
	if !ok || !bytes.Equal(got, payload2) {
		t.Fatalf("overwrite: got %q", got)
	}
	// Flip a payload bit: the whole snapshot is rejected.
	blob, _ := os.ReadFile(path)
	blob[frameHeader+3] ^= 1
	os.WriteFile(path, blob, 0o644)
	if _, ok, err := readSnapshot(path); ok || err == nil {
		t.Fatal("corrupt snapshot should be rejected with an error")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("leftover files in snapshot dir: %v", entries)
	}
}
