package cachesim

import (
	"testing"
)

func twoLevel(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(
		Config{Size: 256, BlockSize: 16, Assoc: 1, WriteBack: true, WriteAllocate: true},
		Config{Size: 4096, BlockSize: 16, Assoc: 4, WriteBack: true, WriteAllocate: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyBasics(t *testing.T) {
	h := twoLevel(t)
	if len(h.levels) != 2 {
		t.Fatalf("levels = %d", len(h.levels))
	}
	// Cold access misses everywhere → level 3 (memory).
	if lvl := h.Access(0x100, false); lvl != 3 {
		t.Errorf("cold access hit level %d", lvl)
	}
	// Immediately again: L1 hit.
	if lvl := h.Access(0x100, false); lvl != 1 {
		t.Errorf("second access hit level %d", lvl)
	}
	// Conflict-evict from L1 (direct-mapped 256B: +0x100 aliases), then
	// come back: L1 misses, L2 still holds it.
	h.Access(0x200, false)
	if lvl := h.Access(0x100, false); lvl != 2 {
		t.Errorf("L2 should have caught the victim: level %d", lvl)
	}
	// Stats are per level.
	if h.Stats(1).Accesses() != 4 {
		t.Errorf("L1 accesses = %d", h.Stats(1).Accesses())
	}
	if h.Stats(2).Accesses() >= h.Stats(1).Accesses() {
		t.Error("L2 should see only L1 misses")
	}
}

func TestHierarchyWritebackPropagates(t *testing.T) {
	h := twoLevel(t)
	h.Access(0x000, true)  // dirty in L1
	h.Access(0x100, false) // evicts dirty line (same L1 set)
	if h.Stats(1).Writebacks != 1 {
		t.Fatalf("L1 writebacks = %d", h.Stats(1).Writebacks)
	}
	// The writeback became an L2 write.
	if h.Stats(2).Writes == 0 {
		t.Error("L2 should absorb the L1 writeback")
	}
}

func TestHierarchyMemoryAccesses(t *testing.T) {
	h := twoLevel(t)
	for i := uint64(0); i < 64; i++ {
		h.Access(i*16, false) // all cold
	}
	if got := h.MemoryAccesses(); got != 64 {
		t.Errorf("memory accesses = %d, want 64", got)
	}
	// Second pass: everything fits in the 4KB L2.
	for i := uint64(0); i < 64; i++ {
		h.Access(i*16, false)
	}
	if got := h.MemoryAccesses(); got != 64 {
		t.Errorf("second pass should add no memory accesses, got %d", got)
	}
}

func TestHierarchyErrors(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy should fail")
	}
	if _, err := NewHierarchy(Config{Size: 3}); err == nil {
		t.Error("bad level config should fail")
	}
}

func TestHierarchyFiltersLocality(t *testing.T) {
	// A looping working set larger than L1 but inside L2: L1 thrashes,
	// L2 absorbs nearly everything after warmup.
	h := twoLevel(t)
	for pass := 0; pass < 10; pass++ {
		for i := uint64(0); i < 64; i++ { // 1 KB working set
			h.Access(i*16, false)
		}
	}
	l1 := h.Stats(1)
	if l1.MissRate() < 0.5 {
		t.Errorf("L1 should thrash: missrate %v", l1.MissRate())
	}
	if mem := h.MemoryAccesses(); mem != 64 {
		t.Errorf("after warmup everything should hit L2: %d memory accesses", mem)
	}
}
