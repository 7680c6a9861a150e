package powerplay_test

import (
	"context"
	"testing"

	"powerplay"
)

// TestEngineAllocBudgets pins the allocation count of the engine's hot
// calls.  Allocation counts are deterministic where timings on a
// shared machine are not, so a change that makes one of these calls
// allocate more fails here rather than hiding in benchmark noise.
// Each budget is the measured count plus a little headroom; lower a
// budget when a change brings its count down.
func TestEngineAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	reg := powerplay.StandardLibrary()
	lum, err := powerplay.Luminance2(reg)
	if err != nil {
		t.Fatal(err)
	}
	pad, err := powerplay.InfoPad(reg)
	if err != nil {
		t.Fatal(err)
	}
	// The edit row plays its own copy, so the no-edit row never sees a
	// dirty cone.
	edited, err := powerplay.InfoPad(reg)
	if err != nil {
		t.Fatal(err)
	}
	play, editPlay := pad.IncrementalEngine(), edited.IncrementalEngine()
	vdd := map[string]float64{"vdd": 1.5}
	vdds := powerplay.Linspace(1.0, 3.3, 200)
	supplies := [2]float64{5.0, 5.05}
	edits := 0
	scalar := &powerplay.ExploreRunner{ChunkSize: 1}

	for _, row := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"InfoPad Incremental.Play, no edit", 0, func() error {
			_, _, err := play.Play()
			return err
		}},
		{"InfoPad Play after a one-binding edit", 42, func() error {
			edits++
			edited.Root.SetGlobalValue("vdd3", supplies[edits%2], "5")
			_, _, err := editPlay.Play()
			return err
		}},
		{"Luminance_2 EvaluateTotals at a vdd override", 16, func() error {
			_, _, _, err := lum.EvaluateTotals(vdd)
			return err
		}},
		{"InfoPad EvaluateTotals at a vdd override", 75, func() error {
			_, _, _, err := pad.EvaluateTotals(vdd)
			return err
		}},
		{"Luminance_2 200-point vdd Sweep", 425, func() error {
			_, err := powerplay.Sweep(ctx, lum, "vdd", vdds)
			return err
		}},
		{"InfoPad 200-point vdd Sweep", 12650, func() error {
			_, err := powerplay.Sweep(ctx, pad, "vdd", vdds)
			return err
		}},
		{"Luminance_2 200-point vdd Sweep, ChunkSize 1", 3500, func() error {
			_, err := scalar.Sweep(ctx, lum, "vdd", vdds)
			return err
		}},
		{"Luminance_2 MinSupply (1 MHz, 0.8-3.3 V)", 40, func() error {
			_, err := powerplay.MinSupply(ctx, lum, 1e6, 0.8, 3.3)
			return err
		}},
	} {
		var runErr error
		got := testing.AllocsPerRun(20, func() {
			if err := row.run(); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", row.name, runErr)
		}
		t.Logf("%s: %.0f allocs", row.name, got)
		if got > row.budget {
			t.Errorf("%s: %.0f allocs, budget %.0f", row.name, got, row.budget)
		}
	}
}
