package cachesim

import (
	"testing"
	"testing/quick"
)

func mk(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func directMapped(t *testing.T) *Cache {
	return mk(t, Config{Size: 256, BlockSize: 16, Assoc: 1, WriteBack: true, WriteAllocate: true})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Size: 8192, BlockSize: 32, Assoc: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("good config: %v", err)
	}
	bad := []Config{
		{Size: 0, BlockSize: 16, Assoc: 1},
		{Size: 256, BlockSize: 0, Assoc: 1},
		{Size: 256, BlockSize: 24, Assoc: 1},  // non power of two block
		{Size: 250, BlockSize: 16, Assoc: 1},  // size not multiple
		{Size: 256, BlockSize: 16, Assoc: 0},  // bad assoc
		{Size: 256, BlockSize: 16, Assoc: 32}, // assoc > lines
		{Size: 256, BlockSize: 16, Assoc: 5},  // lines not divisible
		{Size: 768, BlockSize: 16, Assoc: 16}, // sets=3 not pow2
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad[%d] should fail: %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(bad[%d]) should fail", i)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := directMapped(t)
	if c.Access(0x40, false) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x40, false) {
		t.Error("second access should hit")
	}
	if !c.Access(0x4F, false) {
		t.Error("same block should hit")
	}
	if c.Access(0x50, false) {
		t.Error("next block should miss")
	}
	s := c.Stats()
	if s.Reads != 4 || s.ReadMisses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := directMapped(t) // 16 sets of 16B
	// 0x000 and 0x100 map to the same set (256B apart).
	c.Access(0x000, false)
	c.Access(0x100, false)
	if c.Access(0x000, false) {
		t.Error("conflicting block should have evicted 0x000")
	}
	if c.Stats().Evictions == 0 {
		t.Error("eviction should be counted")
	}
}

func TestAssociativityRemovesConflict(t *testing.T) {
	c := mk(t, Config{Size: 256, BlockSize: 16, Assoc: 2, WriteBack: true, WriteAllocate: true})
	c.Access(0x000, false)
	c.Access(0x080, false) // same set in an 8-set 2-way cache
	if !c.Access(0x000, false) {
		t.Error("2-way cache should hold both blocks")
	}
}

func TestLRUvsFIFO(t *testing.T) {
	// Access pattern distinguishing the policies: fill ways A,B; touch A;
	// insert C.  LRU evicts B, FIFO evicts A.
	base := Config{Size: 64, BlockSize: 16, Assoc: 2, WriteBack: true, WriteAllocate: true}
	// Two sets of 16 B blocks: set = block & 1, so blocks 0x00, 0x40 and
	// 0x80 all land in set 0.
	lru := mk(t, base)
	lru.Access(0x00, false) // A
	lru.Access(0x40, false) // B
	lru.Access(0x00, false) // touch A
	lru.Access(0x80, false) // C evicts B under LRU
	if !lru.Access(0x00, false) {
		t.Error("LRU should have kept A")
	}
	fifoCfg := base
	fifoCfg.Policy = FIFO
	fifo := mk(t, fifoCfg)
	fifo.Access(0x00, false)
	fifo.Access(0x40, false)
	fifo.Access(0x00, false)
	fifo.Access(0x80, false) // C evicts A under FIFO
	if !fifo.Access(0x40, false) {
		t.Error("FIFO should have kept B")
	}
	if fifo.Access(0x00, false) {
		t.Error("FIFO should have evicted A despite the touch")
	}
}

func TestWriteBackGeneratesWritebacks(t *testing.T) {
	c := directMapped(t)
	c.Access(0x000, true)  // dirty fill
	c.Access(0x100, false) // evicts dirty line
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	if s.MemWrites != 0 {
		t.Errorf("write-back cache should have no write-through traffic, got %d", s.MemWrites)
	}
}

func TestWriteThroughTraffic(t *testing.T) {
	c := mk(t, Config{Size: 256, BlockSize: 16, Assoc: 1, WriteBack: false, WriteAllocate: true})
	c.Access(0x00, true) // miss, fill, write through
	c.Access(0x00, true) // hit, write through
	s := c.Stats()
	if s.MemWrites != 2 {
		t.Errorf("memWrites = %d, want 2", s.MemWrites)
	}
	if s.Writebacks != 0 {
		t.Error("write-through cache should never write back")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := mk(t, Config{Size: 256, BlockSize: 16, Assoc: 1, WriteBack: false, WriteAllocate: false})
	c.Access(0x00, true) // write miss, no fill
	if c.Access(0x00, false) {
		t.Error("no-write-allocate should not have filled the line")
	}
	s := c.Stats()
	if s.WriteMisses != 1 || s.MemWrites != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFullyAssociative(t *testing.T) {
	c := mk(t, Config{Size: 64, BlockSize: 16, Assoc: 4, WriteBack: true, WriteAllocate: true})
	for i := uint64(0); i < 4; i++ {
		c.Access(i*16, false)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Access(i*16, false) {
			t.Errorf("block %d should still be resident", i)
		}
	}
	c.Access(4*16, false) // evicts LRU block 0
	if c.Access(0, false) {
		t.Error("block 0 should have been evicted")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 80, Writes: 20, ReadMisses: 8, WriteMisses: 2, Writebacks: 3, MemWrites: 5}
	if s.Accesses() != 100 || s.Misses() != 10 {
		t.Error("accessor math")
	}
	if s.MissRate() != 0.1 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty trace miss rate should be 0")
	}
}

// Property: miss count never exceeds access count, and a larger cache
// never has more misses on the same sequential trace.
func TestQuickInvariants(t *testing.T) {
	f := func(addrSeed []uint16) bool {
		small := mustNew(Config{Size: 128, BlockSize: 16, Assoc: 2, WriteBack: true, WriteAllocate: true})
		big := mustNew(Config{Size: 1024, BlockSize: 16, Assoc: 2, WriteBack: true, WriteAllocate: true})
		for i, a := range addrSeed {
			addr := uint64(a)
			write := i%3 == 0
			small.Access(addr, write)
			big.Access(addr, write)
		}
		ss, bs := small.Stats(), big.Stats()
		if ss.Misses() > ss.Accesses() || bs.Misses() > bs.Accesses() {
			return false
		}
		// LRU caches with same block size & assoc are "stack" algorithms:
		// inclusion holds, so the bigger cache cannot miss more.
		return bs.Misses() <= ss.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: repeating a trace twice with a cache big enough to hold the
// working set yields zero misses in the second pass.
func TestQuickSecondPassHits(t *testing.T) {
	f := func(blocks [8]uint8) bool {
		c := mustNew(Config{Size: 1 << 14, BlockSize: 16, Assoc: 4, WriteBack: true, WriteAllocate: true})
		for _, b := range blocks {
			c.Access(uint64(b)*16, false)
		}
		before := c.Stats().Misses()
		for _, b := range blocks {
			c.Access(uint64(b)*16, false)
		}
		return c.Stats().Misses() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("String")
	}
	if Replacement(9).String() == "" {
		t.Error("unknown policy should still format")
	}
}
