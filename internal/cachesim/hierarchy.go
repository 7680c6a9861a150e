package cachesim

import "fmt"

// Hierarchy chains cache levels the way Dinero does: an access probes
// L1; on a miss the fill propagates to L2 (and onward), and write-back
// victims are written into the next level.  Each level keeps its own
// Stats, so the refined processor model can price L1 hits, L2 hits and
// memory fills separately.
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from outermost-first configs
// (L1 first).  At least one level is required.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesim: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	for i, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cachesim: level %d: %w", i+1, err)
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Stats returns the counters of level (1-based).
func (h *Hierarchy) Stats(level int) Stats {
	return h.levels[level-1].Stats()
}

// Access performs one access.  It returns the level that hit
// (1-based), or the level count plus one when the request went all the way to
// memory.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	for i, c := range h.levels {
		before := c.Stats().Writebacks
		hit := c.Access(addr, write)
		// A dirty eviction at this level becomes a write at the next.
		if wb := c.Stats().Writebacks - before; wb > 0 && i+1 < len(h.levels) {
			// The victim's address is not tracked per line here; model
			// the writeback as a write of the same set-sized region.
			// One write per writeback preserves the traffic counts.
			for n := uint64(0); n < wb; n++ {
				h.levels[i+1].Access(addr, true)
			}
		}
		if hit {
			return i + 1
		}
	}
	return len(h.levels) + 1
}

// MemoryAccesses returns the number of requests that missed every
// level: the last level's misses.
func (h *Hierarchy) MemoryAccesses() uint64 {
	return h.levels[len(h.levels)-1].Stats().Misses()
}
