package cells

import (
	"math"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// checkSweepFormMatchesEvaluate is the kernel oracle: the closed form
// evaluated columnar must reproduce Evaluate bit for bit across a grid
// of operating points.
func checkSweepFormMatchesEvaluate(t *testing.T, m model.Model, base model.Params) {
	t.Helper()
	full, err := model.Validate(m.Info().Params, base)
	if err != nil {
		t.Fatalf("%s: validate: %v", m.Info().Name, err)
	}
	sf, ok := m.(model.SweepFormer).SweepForm(full)
	if !ok {
		t.Fatalf("%s: no sweep form at %v", m.Info().Name, base)
	}
	var vdd, f []float64
	for _, v := range []float64{0.6, 0.8, 1.5, 2.5, 3.3, 5} {
		for _, fr := range []float64{0, 1e6, 2e6, 66e6, 1e9} {
			vdd = append(vdd, v)
			f = append(f, fr)
		}
	}
	n := len(vdd)
	ds := make([]float64, n)
	model.DelayScaleCols(ds, vdd, n)
	pw, dyn, stat := make([]float64, n), make([]float64, n), make([]float64, n)
	area, delay := make([]float64, n), make([]float64, n)
	sf.EvalCols(vdd, f, ds, pw, dyn, stat, area, delay, n)
	for i := 0; i < n; i++ {
		full[model.ParamVDD] = vdd[i]
		full[model.ParamFreq] = f[i]
		est, err := m.Evaluate(full)
		if err != nil {
			t.Fatalf("%s @ vdd=%g f=%g: %v", m.Info().Name, vdd[i], f[i], err)
		}
		check := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s @ vdd=%g f=%g: %s = %v (%#x), Evaluate says %v (%#x)",
					m.Info().Name, vdd[i], f[i], what,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		check("power", pw[i], float64(est.Power()))
		check("dynamic", dyn[i], float64(est.DynamicPower()))
		check("static", stat[i], float64(est.StaticPower()))
		check("area", area[i], float64(est.Area))
		check("delay", delay[i], float64(est.Delay))
	}
}

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
		checkSweepFormMatchesEvaluate(t, c.m, c.base)
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
