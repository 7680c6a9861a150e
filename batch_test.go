// Batch-engine acceptance at the facade: the columnar sweep path must
// be observationally identical to the scalar path on every seed sheet —
// bit-identical points, identical error text — and measurably faster on
// the 10k-point sweep EXPERIMENTS.md records as X21.
package powerplay_test

import (
	"context"
	"math"
	"os"
	"testing"
	"time"

	"powerplay"
)

// batchConfigs are the chunked runner shapes checked against the
// scalar oracle (ChunkSize 1).
var batchConfigs = []powerplay.ExploreRunner{
	{},              // default chunk
	{ChunkSize: 64}, // several chunks per sweep
	{ChunkSize: 17}, // chunk not dividing the sweep
}

func samePoints(t *testing.T, label string, got, want []powerplay.ExplorePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Power) != math.Float64bits(want[i].Power) ||
			math.Float64bits(got[i].Area) != math.Float64bits(want[i].Area) ||
			math.Float64bits(got[i].Delay) != math.Float64bits(want[i].Delay) {
			t.Errorf("%s point %d: batch %+v, scalar %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchSweepEquivalenceOnSeedSheets sweeps every seed design along
// both operating-point axes, 257 points each, through the scalar engine
// and through every chunked configuration. The supply range starts at
// 0.8 V, inside every model's schema but below the delay-scale
// threshold region where delays blow up toward +Inf — those bit
// patterns must survive the columnar path unchanged.
func TestBatchSweepEquivalenceOnSeedSheets(t *testing.T) {
	axes := []struct {
		name   string
		values []float64
	}{
		{"vdd", powerplay.Linspace(0.8, 3.3, 257)},
		{"f", powerplay.Linspace(1e5, 66e6, 257)},
	}
	ctx := context.Background()
	for name, d := range seedDesigns(t) {
		t.Run(name, func(t *testing.T) {
			for _, ax := range axes {
				scalar := &powerplay.ExploreRunner{ChunkSize: 1}
				want, wantErr := scalar.Sweep(ctx, d, ax.name, ax.values)
				for _, cfg := range batchConfigs {
					got, err := cfg.Sweep(ctx, d, ax.name, ax.values)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s %+v: err=%v, scalar err=%v", ax.name, cfg, err, wantErr)
					}
					if wantErr != nil {
						if err.Error() != wantErr.Error() {
							t.Fatalf("%s %+v: error text differs:\nbatch:  %v\nscalar: %v",
								ax.name, cfg, err, wantErr)
						}
						continue
					}
					samePoints(t, name+"/"+ax.name, got, want)
				}
			}
		})
	}
}

// TestBatchSweepErrorEquivalenceOnSeedSheets drives every seed design
// into failure — 0.2 V sits below every model's supply range — and
// demands the chunked engine reproduce the scalar engine's error text
// exactly, regardless of where in the chunk the bad point lands.
func TestBatchSweepErrorEquivalenceOnSeedSheets(t *testing.T) {
	values := []float64{1.5, 2.0, 0.2, 2.5, 0.2, 3.0}
	ctx := context.Background()
	for name, d := range seedDesigns(t) {
		t.Run(name, func(t *testing.T) {
			_, want := (&powerplay.ExploreRunner{ChunkSize: 1}).Sweep(ctx, d, "vdd", values)
			if want == nil {
				t.Fatal("scalar sweep over 0.2 V did not fail")
			}
			for _, cfg := range batchConfigs {
				_, err := cfg.Sweep(ctx, d, "vdd", values)
				if err == nil {
					t.Fatalf("%+v: chunked sweep did not fail", cfg)
				}
				if err.Error() != want.Error() {
					t.Fatalf("%+v: error text differs:\nbatch:  %v\nscalar: %v", cfg, err, want)
				}
			}
		})
	}
}

// benchmarkSweep10k is X21: the Figure 3 sheet swept across 10,000
// supply points, scalar versus columnar. Compare against
// BenchmarkSweepSerial (X18/X19) for the historical 64-point shape.
func benchmarkSweep10k(b *testing.B, chunk int) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		b.Fatal(err)
	}
	runner := &powerplay.ExploreRunner{ChunkSize: chunk}
	values := powerplay.Linspace(1.0, 3.3, 10000)
	ctx := context.Background()
	if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkSweep10kScalar(b *testing.B) { benchmarkSweep10k(b, 1) }
func BenchmarkSweep10kBatch(b *testing.B)  { benchmarkSweep10k(b, 0) }

// TestBatchThroughputSmoke is the CI regression gate behind
// POWERPLAY_BENCH_BATCH (make bench-batch): one in-process X21 run,
// failing if the columnar engine has lost its edge over the scalar
// path on the 10k-point sweep.
func TestBatchThroughputSmoke(t *testing.T) {
	if os.Getenv("POWERPLAY_BENCH_BATCH") == "" {
		t.Skip("set POWERPLAY_BENCH_BATCH=1 to run the batch throughput smoke")
	}
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		t.Fatal(err)
	}
	values := powerplay.Linspace(1.0, 3.3, 10000)
	ctx := context.Background()
	rate := func(chunk int) float64 {
		runner := &powerplay.ExploreRunner{ChunkSize: chunk}
		if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil { // warm compile caches
			t.Fatal(err)
		}
		const reps = 3
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil {
				t.Fatal(err)
			}
		}
		return float64(reps*len(values)) / time.Since(start).Seconds()
	}
	scalar := rate(1)
	batch := rate(0)
	t.Logf("scalar %.0f points/s, batch %.0f points/s (%.1fx)", scalar, batch, batch/scalar)
	if batch < scalar {
		t.Fatalf("columnar sweep slower than scalar: %.0f vs %.0f points/s", batch, scalar)
	}
}
