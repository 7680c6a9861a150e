package cells

import (
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/core/model/formtest"
	"powerplay/internal/units"
)

// TestSweepFormsMatchEvaluate holds each Landman cell kernel to its
// Evaluate over the formtest grid.
func TestSweepFormsMatchEvaluate(t *testing.T) {
	lin := &Linear{
		Name: "t.add", CapPerBit: 48 * units.FemtoFarad,
		AreaPerBit: 900 * units.SquareMicron,
		Delay0:     2e-9, DelayPerBit: 1.5e-9,
	}
	mult := &Multiplier{
		Name: "t.mult", CoeffUncorr: 253 * units.FemtoFarad,
		CoeffCorr: 170 * units.FemtoFarad, AreaPerBit2: 2500 * units.SquareMicron,
		DelayPerBit: 2e-9,
	}
	shift := &Shifter{
		Name: "t.shift", CapPerBitStage: 14 * units.FemtoFarad,
		AreaPerBitStage: 400 * units.SquareMicron, DelayPerStage: 0.8e-9,
	}
	mux := &Mux{
		Name: "t.mux", CapPerLeg: 9 * units.FemtoFarad,
		AreaPerLeg: 150 * units.SquareMicron, DelayPerLevel: 0.5e-9,
	}
	buf := &Buffer{
		Name: "t.pad", CapInternal: 120 * units.FemtoFarad,
		DefaultLoad: 15e-12, AreaPerBit: 10000 * units.SquareMicron,
		Delay: 4e-9,
	}
	cases := []struct {
		m    model.Model
		base model.Params
	}{
		{lin, model.Params{"bits": 16, "act": 0.75}},
		{lin, model.Params{"bits": 1, "act": 0, "tech": 0.5e-6}},
		{mult, model.Params{"bwA": 8, "bwB": 12}},
		{mult, model.Params{"bwA": 8, "bwB": 12, "corr": Correlated}},
		{shift, model.Params{"bits": 32, "maxshift": 31}},
		{mux, model.Params{"bits": 8, "inputs": 5}},
		{buf, model.Params{"bits": 16, "act": 0.25, "cload": 20e-12}},
		{buf, model.Params{"bits": 8, "tech": 1.2e-6}},
	}
	for _, c := range cases {
		formtest.Check(t, c.m, c.base)
	}
}

// TestSweepFormIgnoresOperatingPoint pins the SweepFormer contract:
// vdd and f placeholders in the parameter map must not influence the
// form.
func TestSweepFormIgnoresOperatingPoint(t *testing.T) {
	lin := &Linear{Name: "t.add", CapPerBit: 48 * units.FemtoFarad, Delay0: 2e-9}
	a, _ := model.Validate(lin.Info().Params, model.Params{"bits": 8, "vdd": 0.9, "f": 1e3})
	b, _ := model.Validate(lin.Info().Params, model.Params{"bits": 8, "vdd": 3.3, "f": 1e9})
	sfa, _ := lin.SweepForm(a)
	sfb, _ := lin.SweepForm(b)
	if sfa != sfb {
		t.Fatalf("sweep form depends on operating point: %+v vs %+v", sfa, sfb)
	}
}
