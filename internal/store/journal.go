// Package store is PowerPlay's durability layer: a per-user
// append-only mutation journal plus periodic snapshots, with
// replay-on-boot recovery that reconstructs the exact account map a
// crashed server held.
//
// The contract, from the operator's side:
//
//   - every mutating request appends one or more framed records to the
//     owning user's journal *before* the response is acknowledged, so
//     an acked write survives a kill -9 (under the "always" fsync
//     policy; "interval" bounds the exposure window instead);
//   - a snapshot is a full serialization of one user's state — the
//     journal is truncated after a snapshot lands, so boot replays
//     only the suffix written since;
//   - recovery loads the newest valid snapshot, replays the journal
//     suffix record by record, and *truncates* — never fails on — a
//     torn tail or a CRC-corrupt frame: the crash that produced the
//     partial record already lost that write, and refusing to boot
//     would turn one lost record into a lost site.
//
// The sequence numbers are not invented here: sheet.Design.Generation
// (and the model registry's generation for site-scope records) already
// advance on every mutation, so each record carries the generation the
// live tree had after the edit.  A snapshot records the generations it
// covers; replay skips records at or below them, which makes replay
// idempotent when a crash lands between snapshot and journal
// truncation.
//
// # Frame format
//
// A journal is a sequence of frames, each:
//
//	uint32 LE  payload length n
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	n bytes    payload (one JSON-encoded Record)
//
// Snapshots use the same frame around their JSON body, so both kinds
// of file share one scanner and one corruption story.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// WriteSyncer is the journal's sink: an append-only byte stream with a
// durability barrier.  *os.File satisfies it; tests substitute
// fault-injecting implementations (in the spirit of internal/faultnet)
// that tear writes mid-frame or fail the barrier.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

// Fsync policies (the -durability flag).
const (
	// SyncAlways fsyncs after every append: an acked write survives
	// kill -9.  The strongest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval marks the journal dirty and lets the store's
	// background flusher fsync on a short period: a crash loses at
	// most one flush interval of acked writes.  The default.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: fastest, and the
	// right choice only for throwaway sites and benchmarks.
	SyncNever
)

// ParsePolicy reads the -durability flag spelling.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "", "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown durability policy %q (want always, interval or never)", s)
}

// String returns the flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

const (
	// frameHeader is the fixed per-record overhead: length + CRC.
	frameHeader = 8
	// maxFrameBytes bounds one record's payload.  A record is one
	// mutation or one full design/model serialization; nothing sane
	// approaches this, so a larger declared length is read as
	// corruption, not as an allocation request.
	maxFrameBytes = 16 << 20
)

// castagnoli is the CRC-32C table (the polynomial with hardware
// support on current CPUs, and the one storage systems conventionally
// frame with).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes one payload into buf and returns the extended
// slice.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// scanFrames walks b and returns every intact payload plus the length
// of the valid prefix.  Scanning stops — without error — at the first
// frame that is torn (fewer bytes than its header or declared length
// promises) or corrupt (CRC mismatch, or a length no writer would
// produce): everything at and past that point is untrusted, because
// frame boundaries cannot be re-synchronized once one frame lies.
func scanFrames(b []byte) (payloads [][]byte, validLen int64) {
	off := 0
	for {
		rest := len(b) - off
		if rest < frameHeader {
			return payloads, int64(off)
		}
		n := binary.LittleEndian.Uint32(b[off : off+4])
		crc := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if n == 0 || n > maxFrameBytes || rest-frameHeader < int(n) {
			return payloads, int64(off)
		}
		payload := b[off+frameHeader : off+frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return payloads, int64(off)
		}
		payloads = append(payloads, payload)
		off += frameHeader + int(n)
	}
}

// ErrJournalFailed is what Append returns once an earlier write or
// fsync on the journal failed.  The failed write may have left a torn
// frame on disk, and a failed fsync may have let the kernel drop the
// dirty pages, so a record appended behind either would sit past a
// hole that recovery stops at: acknowledged, then lost.  The journal
// takes appends again only after recovery reopens it and truncates the
// tail.
var ErrJournalFailed = errors.New("store: journal failed")

// Journal is one append-only record file.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	sink   WriteSyncer // the write path; f unless a test interposed
	path   string
	policy SyncPolicy
	dirty  bool  // bytes written since the last successful Sync
	failed error // the write or fsync that failed; Append refuses after it
}

// openJournal opens (creating if needed) the journal at path, scans
// it, physically truncates any torn or corrupt tail, and returns the
// journal positioned for appending plus the intact payloads and the
// number of bytes cut.  Payload slices alias one read of the file and
// must be consumed before the next append.
func openJournal(path string, policy SyncPolicy) (j *Journal, payloads [][]byte, truncated int64, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	blob, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	payloads, valid := scanFrames(blob)
	truncated = int64(len(blob)) - valid
	if truncated > 0 {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &Journal{f: f, sink: f, path: path, policy: policy}, payloads, truncated, nil
}

// SetSink interposes a WriteSyncer between the journal and its file:
// the fault-injection hook.  Tests wrap the underlying file with a
// syncer that tears writes mid-frame or fails its barrier, simulating
// the power cut the frame format exists to survive.
func (j *Journal) SetSink(wrap func(WriteSyncer) WriteSyncer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sink = wrap(j.sink)
}

// Append frames and writes the payloads as one contiguous write, then
// applies the sync policy.  A failed write or fsync marks the journal
// failed: the tail may be torn (the state recovery truncates), so this
// and every later Append return an error wrapping ErrJournalFailed
// rather than acknowledge a record recovery would cut off with the
// tail.  The caller reports the error and keeps serving from memory.
func (j *Journal) Append(payloads ...[]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	var buf []byte
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxFrameBytes {
			return fmt.Errorf("store: record size %d outside (0, %d]", len(p), maxFrameBytes)
		}
		buf = appendFrame(buf, p)
	}
	start := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if j.failed != nil {
		return fmt.Errorf("%w: %s: %v", ErrJournalFailed, j.path, j.failed)
	}
	j.dirty = true
	if _, err := j.sink.Write(buf); err != nil {
		j.failed = err
		return fmt.Errorf("store: appending to %s: %w", j.path, err)
	}
	if j.policy == SyncAlways {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	appendSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Sync forces buffered appends to stable storage (a no-op when clean).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || !j.dirty {
		return nil
	}
	return j.syncLocked()
}

// syncLocked runs the fsync barrier; a failure marks the journal
// failed (see ErrJournalFailed).
func (j *Journal) syncLocked() error {
	if err := j.sink.Sync(); err != nil {
		j.failed = err
		return fmt.Errorf("store: fsync %s: %w", j.path, err)
	}
	j.dirty = false
	fsyncTotal.Inc()
	return nil
}

// reset empties the journal after its records landed in a snapshot.
func (j *Journal) reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	j.dirty = true
	return j.syncLocked()
}

// Close syncs and releases the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if j.dirty {
		if serr := j.sink.Sync(); serr != nil {
			err = serr
		} else {
			fsyncTotal.Inc()
		}
	}
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
