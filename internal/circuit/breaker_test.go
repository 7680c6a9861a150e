package circuit

import (
	"testing"
	"time"
)

// TestLifecycle walks the breaker through trip, fail-fast, a failed
// probe, and a successful probe, checking the state and the Allow
// verdict at each step.
func TestLifecycle(t *testing.T) {
	clock := time.Now()
	b := &Breaker{Threshold: 3, Cooldown: time.Minute}
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected request %d: %v", i, err)
		}
		b.Failure()
	}
	if got := b.State(); got != Open {
		t.Fatalf("after 3 failures state = %v, want open", got)
	}
	if err := b.Allow(); err != ErrOpen {
		t.Fatalf("open breaker allowed a request (err=%v)", err)
	}

	// Cooldown elapses: one probe allowed, a concurrent probe rejected.
	clock = clock.Add(time.Minute)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("after cooldown state = %v, want half-open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker rejected the probe: %v", err)
	}
	if err := b.Allow(); err != ErrOpen {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("failed probe left state %v, want open", got)
	}

	// Second probe succeeds: circuit closes and traffic flows.
	clock = clock.Add(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("after successful probe state = %v, want closed", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected traffic: %v", err)
	}
	b.Success()
}

// TestOnTransition checks the owner hook sees every state change in
// order — the contract the shard router's per-backend metric rides on.
func TestOnTransition(t *testing.T) {
	clock := time.Now()
	var seen []State
	b := &Breaker{Threshold: 1, Cooldown: time.Second,
		OnTransition: func(to State) { seen = append(seen, to) }}
	b.now = func() time.Time { return clock }

	b.Allow()
	b.Failure() // -> open
	clock = clock.Add(time.Second)
	b.Allow()   // -> half-open
	b.Success() // -> closed
	want := []State{Open, HalfOpen, Closed}
	if len(seen) != len(want) {
		t.Fatalf("hook saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook saw %v, want %v", seen, want)
		}
	}
}

// TestReleaseRecordsNoOutcome: a released request neither trips nor
// resets the breaker, and a released half-open probe lets the next
// Allow probe.
func TestReleaseRecordsNoOutcome(t *testing.T) {
	clock := time.Now()
	b := &Breaker{Threshold: 2, Cooldown: time.Minute}
	b.now = func() time.Time { return clock }
	b.Allow()
	b.Failure()
	for i := 0; i < 5; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("released requests closed the door: %v", err)
		}
		b.Release()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("after releases state = %v, want closed", got)
	}
	b.Allow()
	b.Failure() // the second consecutive failure: releases did not reset the run
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open", got)
	}

	clock = clock.Add(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	if err := b.Allow(); err != ErrOpen {
		t.Fatalf("concurrent probe allowed (err=%v)", err)
	}
	b.Release()
	if got := b.State(); got != HalfOpen {
		t.Fatalf("after a released probe state = %v, want half-open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("released probe wedged the breaker: %v", err)
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("after a successful probe state = %v, want closed", got)
	}
}
