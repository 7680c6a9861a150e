package explore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"powerplay/internal/core/sheet"
)

// TestRunnerMatchesSerial pins the determinism guarantee: any worker
// count produces exactly the points a serial run does, in the same
// order.
func TestRunnerMatchesSerial(t *testing.T) {
	d := testDesign(t)
	values := Linspace(1.0, 3.3, 17)
	serial, err := (&Runner{Workers: 1}).Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 100} {
		r := &Runner{Workers: workers}
		got, err := r.Sweep(context.Background(), d, "vdd", values)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].Vars["vdd"] != serial[i].Vars["vdd"] ||
				!almost(got[i].Power, serial[i].Power) ||
				!almost(got[i].Delay, serial[i].Delay) ||
				!almost(got[i].Area, serial[i].Area) {
				t.Errorf("workers=%d point %d: %+v != %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestRunnerSweep2DMatchesSerial does the same for the 2-D cross
// product, whose row-major ordering the web table depends on.
func TestRunnerSweep2DMatchesSerial(t *testing.T) {
	d := testDesign(t)
	v1 := Linspace(1.0, 3.3, 5)
	v2 := Linspace(1e6, 4e6, 4)
	serial, err := (&Runner{Workers: 1}).Sweep2D(context.Background(), d, "vdd", v1, "f", v2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Runner{Workers: 6}).Sweep2D(context.Background(), d, "vdd", v1, "f", v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 || len(serial) != 20 {
		t.Fatalf("len = %d / %d", len(got), len(serial))
	}
	for i := range got {
		if got[i].Vars["vdd"] != serial[i].Vars["vdd"] || got[i].Vars["f"] != serial[i].Vars["f"] ||
			!almost(got[i].Power, serial[i].Power) {
			t.Errorf("point %d: %+v != %+v", i, got[i], serial[i])
		}
	}
}

// TestConcurrentSweepsSharedDesign is the concurrency regression test:
// several parallel sweeps (and solvers) overlap on ONE design, which
// every worker reads directly.  Run under -race (make race) this
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
		runner := &Runner{Workers: 4, Cache: NewCache(0)}
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
	for _, workers := range []int{1, 4} {
		r := &Runner{Workers: workers}
		if _, err := r.Sweep(ctx, d, "vdd", Linspace(1.0, 3.3, 64)); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// Deadline classification survives the wrapping too.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := (&Runner{Workers: 2}).Sweep2D(dctx, d, "vdd", Linspace(1, 3, 8), "f", Linspace(1e6, 4e6, 8)); !errors.Is(err, context.DeadlineExceeded) {
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
// error is the lowest-indexed one regardless of worker count.
func TestRunnerErrorDeterminism(t *testing.T) {
	d := testDesign(t)
	// Points 0..2 are fine, 3 onward are invalid (negative supply).
	values := []float64{1.5, 1.6, 1.7, -1, -2, -3, -4, -5}
	want, err1 := (&Runner{Workers: 1}).Sweep(context.Background(), d, "vdd", values)
	if err1 == nil || want != nil {
		t.Fatalf("serial: %v, %v", want, err1)
	}
	for _, workers := range []int{2, 4, 8} {
		_, err := (&Runner{Workers: workers}).Sweep(context.Background(), d, "vdd", values)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if err.Error() != err1.Error() {
			t.Errorf("workers=%d: error %q, want %q", workers, err, err1)
		}
	}
}

// TestCache checks the memoization layer: hits on repeats, capacity
// bounded by LRU eviction, canonical keys.
func TestCache(t *testing.T) {
	d := testDesign(t)
	cache := NewCache(0)
	r := &Runner{Workers: 2, Cache: cache}
	values := Linspace(1.0, 3.3, 10)
	first, err := r.Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 10 {
		t.Errorf("cold sweep: hits=%d misses=%d", hits, misses)
	}
	second, err := r.Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 10 {
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
	// Key is canonical: insertion order of the map must not matter.
	if Key(map[string]float64{"vdd": 1.5, "f": 2e6}) != Key(map[string]float64{"f": 2e6, "vdd": 1.5}) {
		t.Error("Key should be order-independent")
	}
	if got := Key(map[string]float64{"vdd": 1.5, "f": 2e6}); got != "f=2e+06;vdd=1.5" {
		t.Errorf("Key = %q", got)
	}
	// LRU eviction keeps the cache bounded.
	small := NewCache(4)
	rs := &Runner{Workers: 1, Cache: small}
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
	cache := NewCache(0)
	r := &Runner{Cache: cache}
	v1, err := r.MinSupply(context.Background(), d, 20e6, 0.9, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	_, missesCold := cache.Stats()
	v2, err := r.MinSupply(context.Background(), d, 20e6, 0.9, 3.3)
	if err != nil || v1 != v2 {
		t.Fatalf("repeat search: %v vs %v (%v)", v1, v2, err)
	}
	hits, misses := cache.Stats()
	if misses != missesCold {
		t.Errorf("repeat search evaluated new points: %d -> %d misses", missesCold, misses)
	}
	if hits == 0 {
		t.Error("repeat search should hit the cache")
	}
}
