package shard

import (
	"fmt"
	"testing"
)

// corpus builds a deterministic 10k-user population shaped like real
// login names.
func corpus(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user_%04x", i)
	}
	return out
}

// TestRemovalRemap is the rendezvous property the whole design leans
// on: dropping one of N members remaps exactly the users that member
// owned — everyone else keeps their owner — and that set is ~1/N of
// the corpus.
func TestRemovalRemap(t *testing.T) {
	const n = 4
	users := corpus(10000)
	full := NewRing(Members(n))

	for removed := 0; removed < n; removed++ {
		var survivors []string
		for i, m := range Members(n) {
			if i != removed {
				survivors = append(survivors, m)
			}
		}
		small := NewRing(survivors)
		remapped, ownedByRemoved := 0, 0
		for _, u := range users {
			before := full.members[full.Pick(u)]
			after := survivors[small.Pick(u)]
			if before == Members(n)[removed] {
				ownedByRemoved++
				continue // these must remap; where to is the hash's business
			}
			if before != after {
				remapped++
			}
		}
		if remapped != 0 {
			t.Errorf("removing shard %d remapped %d users another member owned; rendezvous must move none",
				removed, remapped)
		}
		// The churn is exactly the removed member's load, which balance
		// keeps near 1/N.  Allow generous slop around 2500: this guards
		// the 1/N *bound*, not perfect balance (tested separately).
		if lim := 10000 / n * 13 / 10; ownedByRemoved > lim {
			t.Errorf("shard %d owned %d of 10000 users; churn bound wants <= %d (~1/%d + 30%%)",
				removed, ownedByRemoved, lim, n)
		}
	}
}

// TestBalance: each member's share of a 10k corpus stays near 1/N.
func TestBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		r := NewRing(Members(n))
		counts := make([]int, n)
		for _, u := range corpus(10000) {
			counts[r.Pick(u)]++
		}
		want := 10000 / n
		for i, c := range counts {
			if c < want*7/10 || c > want*13/10 {
				t.Errorf("n=%d shard %d owns %d users; want %d +/- 30%%", n, i, c, want)
			}
		}
	}
}

// TestDeterminism: ownership depends on the member names alone, never
// on list order or ring instance.
func TestDeterminism(t *testing.T) {
	users := corpus(1000)
	fwd := NewRing([]string{"shard-0", "shard-1", "shard-2"})
	rev := NewRing([]string{"shard-2", "shard-1", "shard-0"})
	for _, u := range users {
		a := fwd.members[fwd.Pick(u)]
		b := rev.members[rev.Pick(u)]
		if a != b {
			t.Fatalf("user %s: owner %s with one order, %s with the other", u, a, b)
		}
	}
}

// TestOwnerUnsharded: a fleet of one shard owns everything at 0.
func TestOwnerUnsharded(t *testing.T) {
	r := NewRing(Members(1))
	for _, u := range corpus(100) {
		if got := r.Pick(u); got != 0 {
			t.Errorf("Pick(%s) = %d on a one-shard ring, want 0", u, got)
		}
	}
}

// TestEmptyRing: Pick on an empty ring answers -1, not a panic.
func TestEmptyRing(t *testing.T) {
	if got := NewRing(nil).Pick("u"); got != -1 {
		t.Errorf("empty ring Pick = %d, want -1", got)
	}
}
