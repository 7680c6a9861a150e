// Package cachesim is a Dinero-style trace-driven cache simulator.
//
// The paper's "Programmable Processors" section notes that instruction-
// level energy models underestimate power because cache and branch
// misses are neglected, and points at profilers (SPIX, Pixie) and cache
// simulators (Dinero) as the refinement path.  This package is that
// substrate: a set-associative cache with LRU/FIFO replacement and
// write-back/write-through policies, driven by the address trace the
// proc package's VM emits, producing the miss counts that the refined
// processor energy model prices.
package cachesim

import (
	"fmt"
)

// Replacement selects the victim line within a set.
type Replacement int

// Replacement policies.
const (
	// LRU evicts the least recently used line.
	LRU Replacement = iota
	// FIFO evicts the oldest-filled line.
	FIFO
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	}
	return fmt.Sprintf("Replacement(%d)", int(r))
}

// Config describes a cache organization.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// BlockSize is the line size in bytes.
	BlockSize int
	// Assoc is the set associativity; Size/BlockSize for fully
	// associative.
	Assoc int
	// Policy is the replacement policy.
	Policy Replacement
	// WriteBack holds dirty lines until eviction; false means
	// write-through (every write also goes to memory).
	WriteBack bool
	// WriteAllocate fills the line on a write miss; false sends the
	// write around the cache.
	WriteAllocate bool
}

// Validate checks the organization for consistency.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0:
		return fmt.Errorf("cachesim: size %d must be positive", c.Size)
	case c.BlockSize <= 0:
		return fmt.Errorf("cachesim: block size %d must be positive", c.BlockSize)
	case c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("cachesim: block size %d must be a power of two", c.BlockSize)
	case c.Size%c.BlockSize != 0:
		return fmt.Errorf("cachesim: size %d not a multiple of block size %d", c.Size, c.BlockSize)
	case c.Assoc <= 0:
		return fmt.Errorf("cachesim: associativity %d must be positive", c.Assoc)
	}
	lines := c.Size / c.BlockSize
	if c.Assoc > lines {
		return fmt.Errorf("cachesim: associativity %d exceeds %d lines", c.Assoc, lines)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cachesim: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d must be a power of two", sets)
	}
	return nil
}

// Stats accumulates access outcomes.
type Stats struct {
	// Reads and Writes count accesses by kind.
	Reads, Writes uint64
	// ReadMisses and WriteMisses count misses by kind.
	ReadMisses, WriteMisses uint64
	// Writebacks counts dirty evictions (write-back caches only).
	Writebacks uint64
	// MemWrites counts words sent to memory by write-through traffic.
	MemWrites uint64
	// Evictions counts replaced valid lines.
	Evictions uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses per access, or 0 for an empty trace.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64 // LRU stamp
	filled  uint64 // FIFO stamp
}

// Cache is one level of set-associative cache.
type Cache struct {
	cfg        Config
	sets       [][]line
	setMask    uint64
	blockShift uint
	clock      uint64
	stats      Stats
}

// New builds a cache from a validated configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.Size / cfg.BlockSize
	nsets := lines / cfg.Assoc
	sets := make([][]line, nsets)
	backing := make([]line, lines)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	shift := uint(0)
	for 1<<shift < cfg.BlockSize {
		shift++
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		setMask:    uint64(nsets - 1),
		blockShift: shift,
	}, nil
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access performs one read (write=false) or write (write=true) of the
// byte address addr and reports whether it hit.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	blk := addr >> c.blockShift
	set := c.sets[blk&c.setMask]
	tag := blk >> popcount(c.setMask)

	// Hit?
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.clock
			if write {
				if c.cfg.WriteBack {
					set[i].dirty = true
				} else {
					c.stats.MemWrites++
				}
			}
			return true
		}
	}

	// Miss.
	if write {
		c.stats.WriteMisses++
		if !c.cfg.WriteAllocate {
			c.stats.MemWrites++
			return false
		}
	} else {
		c.stats.ReadMisses++
	}

	victim := c.pickVictim(set)
	if set[victim].valid {
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{
		tag: tag, valid: true,
		lastUse: c.clock, filled: c.clock,
	}
	if write {
		if c.cfg.WriteBack {
			set[victim].dirty = true
		} else {
			c.stats.MemWrites++
		}
	}
	return false
}

func (c *Cache) pickVictim(set []line) int {
	// Prefer an invalid way.
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	best := 0
	for i := 1; i < len(set); i++ {
		switch c.cfg.Policy {
		case FIFO:
			if set[i].filled < set[best].filled {
				best = i
			}
		default: // LRU
			if set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
	}
	return best
}

func popcount(x uint64) uint {
	var n uint
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
