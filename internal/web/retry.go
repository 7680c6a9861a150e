package web

import (
	"context"
	"math/rand"
	"time"
)

// retryPolicy bounds and paces the Remote client's re-attempts.
//
// The policy distinguishes idempotent requests (the GETs behind Models
// and Info, and schema refreshes) from evaluation POSTs.  GETs are
// retried freely on any transient failure — transport errors, 5xx
// statuses, truncated or garbage bodies.  Eval POSTs are retried only
// on connection-level errors (the request demonstrably never produced
// a response) and within a tighter attempt budget, so a publisher that
// is slow rather than down is not hammered with duplicate work.
//
// Waits follow exponential backoff with equal jitter: attempt k sleeps
// between d/2 and d where d = min(maxDelay, baseDelay·2^k), which
// spreads synchronized retries from many consumers apart.
type retryPolicy struct {
	// maxAttempts and maxEvalAttempts are the total try budgets for
	// idempotent requests and Eval POSTs, including the first.
	maxAttempts, maxEvalAttempts int
	// baseDelay is the backoff before the first retry; maxDelay caps a
	// single backoff.
	baseDelay, maxDelay time.Duration
}

// defaultRetry is every Remote's policy; tests pace their own.
var defaultRetry = &retryPolicy{
	maxAttempts: 4, maxEvalAttempts: 2,
	baseDelay: 50 * time.Millisecond, maxDelay: 2 * time.Second,
}

// attempts is the try budget for one request class.
func (p *retryPolicy) attempts(idempotent bool) int {
	if idempotent {
		return p.maxAttempts
	}
	return p.maxEvalAttempts
}

// backoff computes the jittered wait before retry number k (0-based).
func (p *retryPolicy) backoff(k int) time.Duration {
	d := p.baseDelay
	for i := 0; i < k && d < p.maxDelay; i++ {
		d *= 2
	}
	d = min(d, p.maxDelay)
	// Equal jitter: [d/2, d).
	return d/2 + time.Duration(rand.Float64()*float64(d/2))
}

// wait sleeps the backoff for retry k, returning early if ctx ends.
func (p *retryPolicy) wait(ctx context.Context, k int) error {
	t := time.NewTimer(p.backoff(k))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
