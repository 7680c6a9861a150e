// Package circuit is the three-state circuit breaker shared by every
// subsystem that talks to a peer it cannot trust to answer: the remote
// model client (internal/web) blames one publisher per breaker, and the
// shard router (internal/shard) blames one backend process per breaker.
//
// The machinery landed with the remote model protocol hardening (PR 3)
// and moved here unchanged when the shard router needed the identical
// open/half-open/probe discipline against its backends.
package circuit

import (
	"errors"
	"sync"
	"time"

	"powerplay/internal/obs"
)

// ErrOpen is returned when a breaker is rejecting requests without
// trying the network.
var ErrOpen = errors.New("circuit breaker open")

// State enumerates the classic three circuit-breaker states.
type State int

// Breaker states.
const (
	// Closed: requests flow; failures are counted.
	Closed State = iota
	// Open: requests fail fast until the cooldown elapses.
	Open
	// HalfOpen: one probe request at a time tests recovery.
	HalfOpen
)

// String names the state for logs, healthz and stale-estimate notes.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// transitions counts every state change across all breakers in the
// process — the coarse fleet-health signal.  Per-peer attribution (which
// backend, which publisher) is the owner's job via OnTransition.
var transitions = obs.NewCounterVec("powerplay_breaker_transitions_total",
	"Circuit breaker state transitions, by state entered (open/half-open/closed).",
	"to")

// Breaker is a per-peer circuit breaker.
//
// A run of Threshold consecutive failures trips the breaker open;
// while open, Allow rejects immediately with ErrOpen, so a dead peer
// costs each caller a map lookup instead of a connect timeout.  After
// Cooldown the breaker admits a single probe request (half-open): a
// success closes the circuit, a failure re-opens it for another
// cooldown.  Concurrent probes are rejected, so a recovering peer sees
// one request, not a thundering herd.
//
// The zero value is a ready-to-use breaker with default settings; one
// Breaker must not be shared across peers (its whole point is blaming
// the right one).
type Breaker struct {
	// Threshold is the consecutive-failure count that trips the
	// breaker; zero selects 5.
	Threshold int
	// Cooldown is how long the breaker stays open before probing;
	// zero selects 10 s.
	Cooldown time.Duration
	// OnTransition, when set, observes every state change with the
	// state being entered — how an owner attributes transitions to a
	// labeled peer (the shard router's per-backend metric).  Called
	// under the breaker's lock; keep it cheap and non-reentrant.
	OnTransition func(to State)

	// now replaces the clock in tests; nil uses time.Now.
	now func() time.Time

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool
}

func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 5
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return 10 * time.Second
}

// enter records a state change in the process-wide counter and the
// owner's hook.  Caller holds b.mu.
func (b *Breaker) enter(to State) {
	b.state = to
	transitions.With(to.String()).Inc()
	if b.OnTransition != nil {
		b.OnTransition(to)
	}
}

// State reports the current state (transitioning open → half-open if
// the cooldown has elapsed).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.clock().Sub(b.openedAt) >= b.cooldown() {
		return HalfOpen
	}
	return b.state
}

// Allow asks permission to issue one request.  It returns nil (go
// ahead) or ErrOpen.  Every Allow that returns nil must be matched by
// exactly one Success, Failure or Release call.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.clock().Sub(b.openedAt) < b.cooldown() {
			return ErrOpen
		}
		b.enter(HalfOpen)
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return ErrOpen
		}
		b.probing = true
		return nil
	}
}

// Success records a completed request and closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		b.enter(Closed)
	}
	b.state = Closed
	b.failures = 0
	b.probing = false
}

// Failure records a failed request, tripping or re-opening the circuit
// as appropriate.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state == HalfOpen {
		// The probe failed: straight back to open.
		b.enter(Open)
		b.openedAt = b.clock()
		return
	}
	b.failures++
	if b.failures >= b.threshold() {
		b.enter(Open)
		b.openedAt = b.clock()
	}
}

// Release ends an admitted request that has no verdict on the peer:
// the caller gave up (its own context ended) before the peer answered.
// It counts neither a success nor a failure, and it frees a half-open
// probe slot so the next Allow probes instead of the breaker wedging.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}
