package explore

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"powerplay/internal/core/sheet"
)

// sameAsEvaluateAt demands each swept point equal d.EvaluateAt on its
// own override vector, bit for bit.
func sameAsEvaluateAt(t *testing.T, d *sheet.Design, pts []Point) {
	t.Helper()
	for i, p := range pts {
		res, err := d.EvaluateAt(p.Vars)
		if err != nil {
			t.Fatalf("point %d %v: %v", i, p.Vars, err)
		}
		if math.Float64bits(p.Power) != math.Float64bits(float64(res.Power)) ||
			math.Float64bits(p.Area) != math.Float64bits(float64(res.Area)) ||
			math.Float64bits(p.Delay) != math.Float64bits(float64(res.Delay)) {
			t.Errorf("point %d %v: %+v != EvaluateAt %v/%v/%v", i, p.Vars, p, res.Power, res.Area, res.Delay)
		}
	}
}

// TestRunnerMatchesSerial pins the sweep contract: every point of a
// zero-Runner sweep is, in input order, exactly what EvaluateAt
// returns for it.
func TestRunnerMatchesSerial(t *testing.T) {
	d := testDesign(t)
	values := Linspace(1.0, 3.3, 17)
	got, err := (&Runner{}).Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(values) {
		t.Fatalf("%d points, want %d", len(got), len(values))
	}
	for i, p := range got {
		if p.Vars["vdd"] != values[i] {
			t.Errorf("point %d: vdd = %v, want %v", i, p.Vars["vdd"], values[i])
		}
	}
	sameAsEvaluateAt(t, d, got)
}

// TestRunnerSweep2DMatchesSerial does the same for the 2-D cross
// product, whose row-major ordering the web table depends on.
func TestRunnerSweep2DMatchesSerial(t *testing.T) {
	d := testDesign(t)
	v1 := Linspace(1.0, 3.3, 5)
	v2 := Linspace(1e6, 4e6, 4)
	got, err := (&Runner{}).Sweep2D(context.Background(), d, "vdd", v1, "f", v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("len = %d, want 20", len(got))
	}
	for i, p := range got {
		if p.Vars["vdd"] != v1[i/len(v2)] || p.Vars["f"] != v2[i%len(v2)] {
			t.Errorf("point %d: vars %v, want vdd=%v f=%v", i, p.Vars, v1[i/len(v2)], v2[i%len(v2)])
		}
	}
	sameAsEvaluateAt(t, d, got)
}

// TestConcurrentSweepsSharedDesign is the concurrency regression test:
// several concurrent sweeps (and solvers) overlap on ONE design, which
// every call reads directly.  Run under -race (make race) this
// proves the shared plan and baseline stay race-free across
// overlapping explorations — and, on cycleDesign, whose plan does not
// compile, that the EvaluateAt fallback is too.
func TestConcurrentSweepsSharedDesign(t *testing.T) {
	for _, c := range []struct {
		name   string
		design *sheet.Design
	}{
		{"compiled", testDesign(t)},
		{"interpreter-fallback", cycleDesign(t)},
	} {
		d := c.design
		runner := &Runner{Cache: NewCache(0)}
		var wg sync.WaitGroup
		errs := make(chan error, 12)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pts, err := runner.Sweep(context.Background(), d, "vdd", Linspace(1.0, 3.3, 8))
				if err == nil && len(pts) != 8 {
					err = errors.New("short sweep")
				}
				errs <- err
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				pts, err := runner.Sweep2D(context.Background(), d, "vdd", Linspace(1.0, 3.3, 4), "f", Linspace(1e6, 4e6, 4))
				if err == nil && len(pts) != 16 {
					err = errors.New("short 2-D sweep")
				}
				errs <- err
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := runner.MinSupply(context.Background(), d, 20e6, 0.9, 3.3)
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// TestRunnerCancellation checks both halves of the cancellation
// contract: a pre-canceled context evaluates nothing, and the error
// wraps ctx.Err() so callers can classify it.
func TestRunnerCancellation(t *testing.T) {
	d := testDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, d, "vdd", Linspace(1.0, 3.3, 64)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// Deadline classification survives the wrapping too.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := Sweep2D(dctx, d, "vdd", Linspace(1, 3, 8), "f", Linspace(1e6, 4e6, 8)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := MinSupply(ctx, d, 20e6, 0.9, 3.3); !errors.Is(err, context.Canceled) {
		t.Errorf("MinSupply err = %v, want context.Canceled", err)
	}
	if _, err := VoltageScale(ctx, d, 20e6, 0.9, 3.3); !errors.Is(err, context.Canceled) {
		t.Errorf("VoltageScale err = %v, want context.Canceled", err)
	}
}

// TestRunnerErrorDeterminism: with many failing points, the reported
// error is the lowest-indexed one, worded as EvaluateAt words it.
func TestRunnerErrorDeterminism(t *testing.T) {
	d := testDesign(t)
	// Points 0..2 are fine, 3 onward are invalid (negative supply).
	values := []float64{1.5, 1.6, 1.7, -1, -2, -3, -4, -5}
	pts, err := Sweep(context.Background(), d, "vdd", values)
	if err == nil || pts != nil {
		t.Fatalf("sweep did not fail: %v, %v", pts, err)
	}
	_, evalErr := d.EvaluateAt(map[string]float64{"vdd": -1})
	if evalErr == nil {
		t.Fatal("EvaluateAt(vdd=-1) did not fail")
	}
	if want := "explore: vdd=-1: " + evalErr.Error(); err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// key canonicalizes an override vector into a cache key: names sorted,
// values spelled with full round-trip precision, so two maps with the
// same bindings always collide regardless of construction order.
func key(overrides map[string]float64) string {
	names := make([]string, 0, len(overrides))
	for n := range overrides {
		names = append(names, n)
	}
	sort.Strings(names)
	vals := make([][]float64, len(names))
	for k, n := range names {
		vals[k] = []float64{overrides[n]}
	}
	return keyAt(names, vals, 0)
}

// cacheCounts returns a reader of the sweep cache hits and misses
// counted process-wide since the call.
func cacheCounts() func() (hits, misses int64) {
	h0, m0 := sweepCacheEvents.With("hit").Value(), sweepCacheEvents.With("miss").Value()
	return func() (int64, int64) {
		return int64(sweepCacheEvents.With("hit").Value() - h0), int64(sweepCacheEvents.With("miss").Value() - m0)
	}
}

// TestCache checks the memoization layer: hits on repeats, capacity
// bounded by LRU eviction, canonical keys.
func TestCache(t *testing.T) {
	d := testDesign(t)
	cache := NewCache(0)
	stats := cacheCounts()
	r := &Runner{Cache: cache}
	values := Linspace(1.0, 3.3, 10)
	first, err := r.Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats(); hits != 0 || misses != 10 {
		t.Errorf("cold sweep: hits=%d misses=%d", hits, misses)
	}
	second, err := r.Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := stats(); hits != 10 {
		t.Errorf("warm sweep should hit all 10 points, hits=%d", hits)
	}
	for i := range first {
		if !almost(first[i].Power, second[i].Power) || !almost(first[i].Delay, second[i].Delay) {
			t.Errorf("cached point %d drifted: %+v vs %+v", i, first[i], second[i])
		}
	}
	if cache.Len() != 10 {
		t.Errorf("Len = %d", cache.Len())
	}
	// key is canonical: insertion order of the map must not matter.
	if key(map[string]float64{"vdd": 1.5, "f": 2e6}) != key(map[string]float64{"f": 2e6, "vdd": 1.5}) {
		t.Error("key should be order-independent")
	}
	if got := key(map[string]float64{"vdd": 1.5, "f": 2e6}); got != "f=2e+06;vdd=1.5" {
		t.Errorf("key = %q", got)
	}
	// LRU eviction keeps the cache bounded.
	small := NewCache(4)
	rs := &Runner{Cache: small}
	if _, err := rs.Sweep(context.Background(), d, "vdd", Linspace(1.0, 3.3, 9)); err != nil {
		t.Fatal(err)
	}
	if small.Len() != 4 {
		t.Errorf("bounded cache Len = %d, want 4", small.Len())
	}
}

// TestRunnerMinSupplyUsesCache: a repeated search over the same design
// re-uses the bisection probes.
func TestRunnerMinSupplyUsesCache(t *testing.T) {
	d := testDesign(t)
	stats := cacheCounts()
	r := &Runner{Cache: NewCache(0)}
	v1, err := r.MinSupply(context.Background(), d, 20e6, 0.9, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	_, missesCold := stats()
	v2, err := r.MinSupply(context.Background(), d, 20e6, 0.9, 3.3)
	if err != nil || v1 != v2 {
		t.Fatalf("repeat search: %v vs %v (%v)", v1, v2, err)
	}
	hits, misses := stats()
	if misses != missesCold {
		t.Errorf("repeat search evaluated new points: %d -> %d misses", missesCold, misses)
	}
	if hits == 0 {
		t.Error("repeat search should hit the cache")
	}
}
