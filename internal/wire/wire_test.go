package wire

import (
	"math"
	"testing"
	"testing/quick"

	"powerplay/internal/core/model"
)

func TestDonathKnownBehaviour(t *testing.T) {
	// Single gate: no wires.
	if got := DonathAvgLength(1, 0.6); got != 0 {
		t.Errorf("n=1 should be 0, got %v", got)
	}
	// For p < 0.5, average length saturates with n (locality wins);
	// classical result: R̄ stays O(1) gate pitches as n grows.
	lSat6 := DonathAvgLength(1e6, 0.3)
	lSat8 := DonathAvgLength(1e8, 0.3)
	if lSat6 > 5 || lSat8/lSat6 > 1.1 {
		t.Errorf("p=0.3 average length should saturate: l(1e6)=%v l(1e8)=%v", lSat6, lSat8)
	}
	// For p > 0.5 the average length grows as n^(p-0.5).
	l4 := DonathAvgLength(1e4, 0.7)
	l6 := DonathAvgLength(1e6, 0.7)
	wantRatio := math.Pow(1e2, 0.2) // n ratio 100, exponent p-1/2
	if ratio := l6 / l4; math.Abs(ratio-wantRatio)/wantRatio > 0.15 {
		t.Errorf("growth ratio = %v, want ≈ %v", ratio, wantRatio)
	}
	// Removable singularities evaluate finitely and continuously.
	for _, p := range []float64{0.5, 1.0} {
		v := DonathAvgLength(1e4, p)
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("p=%v should be finite positive, got %v", p, v)
		}
		near := DonathAvgLength(1e4, p+1e-6)
		if math.Abs(v-near)/near > 1e-2 {
			t.Errorf("p=%v discontinuous: %v vs %v", p, v, near)
		}
	}
}

func TestDonathMonotonicInRent(t *testing.T) {
	// Property: for fixed n, higher Rent exponent gives longer wires.
	f := func(raw uint8) bool {
		p := 0.15 + float64(raw)/255*0.6 // 0.15 .. 0.75
		a := DonathAvgLength(1e5, p)
		b := DonathAvgLength(1e5, p+0.1)
		return b > a && a > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateWires(t *testing.T) {
	// 1 mm² of active area, 10k gates.
	est := EstimateWires(1e-6, 1e4, 0.6, 1.5, 200e-12, 2.4e-6)
	if est.GatePitch <= 0 || math.Abs(est.GatePitch-1e-5) > 1e-12 {
		t.Errorf("gate pitch = %v, want 10 µm", est.GatePitch)
	}
	if est.AvgLength <= est.GatePitch {
		t.Error("average wire should span more than one pitch at p=0.6")
	}
	wantTotal := est.AvgLength * 1e4 * 1.5
	if math.Abs(est.TotalLength-wantTotal) > 1e-9 {
		t.Errorf("total length = %v, want %v", est.TotalLength, wantTotal)
	}
	if float64(est.TotalCap) <= 0 || float64(est.WireArea) <= 0 {
		t.Error("cap and wire area should be positive")
	}
	// Degenerate inputs are safe.
	if EstimateWires(0, 100, 0.6, 1, 1, 1) != (Estimate{}) {
		t.Error("zero area should produce the zero estimate")
	}
	if EstimateWires(1e-6, 0, 0.6, 1, 1, 1) != (Estimate{}) {
		t.Error("zero blocks should produce the zero estimate")
	}
}

func TestInterconnectModel(t *testing.T) {
	w := &Interconnect{Name: "ucb.wire", CapPerMeter: 200e-12, WirePitch: 2.4e-6}
	e, err := model.Evaluate(w, model.Params{
		"area": 1e-6, "blocks": 1e4, "rent": 0.6, "vdd": 1.5, "f": 2e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if float64(e.Power()) <= 0 {
		t.Error("interconnect power should be positive")
	}
	// The A4 ablation shape: power grows superlinearly with Rent p.
	var prev float64
	for _, p := range []float64{0.4, 0.55, 0.7, 0.85} {
		est, err := model.Evaluate(w, model.Params{"area": 1e-6, "blocks": 1e4, "rent": p, "f": 2e6})
		if err != nil {
			t.Fatal(err)
		}
		if float64(est.Power()) <= prev {
			t.Errorf("power at p=%v should exceed p-0.15", p)
		}
		prev = float64(est.Power())
	}
	// Larger designs have longer (slower) average wires.
	small, _ := model.Evaluate(w, model.Params{"area": 1e-8, "blocks": 1e3})
	big, _ := model.Evaluate(w, model.Params{"area": 1e-4, "blocks": 1e6})
	if float64(big.Delay) <= float64(small.Delay) {
		t.Error("bigger die should have slower average wire")
	}
}

func TestInterconnectDefaults(t *testing.T) {
	w := &Interconnect{Name: "w", CapPerMeter: 200e-12, WirePitch: 2.4e-6}
	if _, err := model.Evaluate(w, nil); err != nil {
		t.Fatal(err)
	}
}
