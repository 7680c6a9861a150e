// Package shard scales one PowerPlay site horizontally: a router
// process maps every user to one of N backend processes with
// rendezvous (highest-random-weight) hashing and reverse-proxies the
// request over pooled keep-alive connections, while each backend owns
// exactly its partition of the per-user journals PR 8 introduced.
//
// The paper's premise is a power-exploration tool "available to the
// whole design community" over the web; the durable per-user account
// store made whole accounts the natural partition unit, and this
// package spreads those accounts across independent engines the same
// way Coburn et al. spread a fixed evaluation workload across
// accelerator engines.  The pieces:
//
//   - the hash (this file): deterministic rendezvous hashing over the
//     canonical member names "shard-0".."shard-N-1", so the router and
//     every backend agree on ownership from the shard count alone, and
//     resizing N remaps only ~1/N of the user corpus;
//   - the wire protocol (protocol.go): the X-Powerplay-Shard-* headers
//     and the 421 ShardRedirect a backend answers when a request for a
//     user it does not own arrives, so a router with a stale view
//     re-routes and self-heals;
//   - the router (router.go): per-backend circuit breakers (the PR 3
//     machinery, now internal/circuit), user extraction from the login
//     form or the powerplay_user cookie, round-robin spreading of
//     site-scope reads, and site-model replication fan-out.
package shard

// The rendezvous hash.  For each member m the score is a 64-bit mix of
// hash(m) and hash(user); the member with the highest score owns the
// user.  Removing a member therefore remaps exactly the users it owned
// (they re-maximize over the survivors) and nobody else — the ≤ 1/N
// churn bound that makes fleet resizes cheap — and no coordination or
// state is needed beyond the member list itself.

import "fmt"

// fnv64a is FNV-1a, inlined so scoring a user allocates nothing.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is SplitMix64's finalizer: a cheap bijective scrambler that
// turns the xor of two FNV hashes into a well-distributed score.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring is an immutable rendezvous-hash member set with precomputed
// member hashes, so the per-request cost is one user hash plus one
// mix per member.
type Ring struct {
	members []string
	hashes  []uint64
}

// NewRing builds a ring over the given member names.  Order matters
// only for the index Pick returns; ownership depends on the names
// alone.
func NewRing(members []string) *Ring {
	r := &Ring{
		members: append([]string(nil), members...),
		hashes:  make([]uint64, len(members)),
	}
	for i, m := range r.members {
		r.hashes[i] = fnv64a(m)
	}
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Pick returns the index of the member owning user, or -1 on an empty
// ring.  Ties (astronomically unlikely under mix64) break toward the
// lexically smallest member name, so ownership never depends on list
// order.
func (r *Ring) Pick(user string) int {
	if len(r.members) == 0 {
		return -1
	}
	ringLookups.Inc()
	uh := fnv64a(user)
	best := 0
	bestScore := mix64(r.hashes[0] ^ uh)
	for i := 1; i < len(r.hashes); i++ {
		s := mix64(r.hashes[i] ^ uh)
		if s > bestScore || (s == bestScore && r.members[i] < r.members[best]) {
			best, bestScore = i, s
		}
	}
	return best
}

// Members returns the canonical member names for an N-shard fleet:
// "shard-0".."shard-N-1".  Routers and backends both hash over these,
// so agreeing on N is agreeing on ownership.
func Members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}
