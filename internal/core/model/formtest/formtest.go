// Package formtest holds the oracle every sweep-form model's tests run:
// the form evaluated columnar must reproduce the model's Evaluate bit
// for bit, at every operating point, and must not depend on the
// operating point it was built at.
package formtest

import (
	"math"
	"testing"

	"powerplay/internal/core/model"
)

// Supplies and frequencies of the grid Check crosses: zero, the
// DelayScale threshold and a point below it, and the library's usual
// operating points.
var (
	supplies = []float64{0, 0.6, model.Vt, 0.8, 1.5, 2.5, 3.3, 5}
	freqs    = []float64{0, 1e6, 2e6, 66e6, 1e9}
)

// Check validates base against m's schema, builds m's sweep form there
// and compares EvalCols over the grid with Evaluate at each grid point:
// power, its dynamic and static parts, area and delay.
func Check(t testing.TB, m model.Model, base model.Params) {
	t.Helper()
	name := m.Info().Name
	full, err := model.Validate(m.Info().Params, base)
	if err != nil {
		t.Fatalf("%s: validate: %v", name, err)
	}
	sf, ok := m.(model.SweepFormer).SweepForm(full)
	if !ok {
		t.Fatalf("%s: no sweep form at %v", name, base)
	}
	moved := full.Clone()
	moved[model.ParamVDD], moved[model.ParamFreq] = 0.9, 1e9
	if other, _ := m.(model.SweepFormer).SweepForm(moved); other != sf {
		t.Errorf("%s: sweep form depends on the operating point: %+v vs %+v", name, sf, other)
	}
	var vdd, f []float64
	for _, v := range supplies {
		for _, fr := range freqs {
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
			t.Fatalf("%s @ vdd=%g f=%g: %v", name, vdd[i], f[i], err)
		}
		p, d, s, _ := est.Totals()
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"power", pw[i], float64(p)},
			{"dynamic", dyn[i], float64(d)},
			{"static", stat[i], float64(s)},
			{"area", area[i], float64(est.Area)},
			{"delay", delay[i], float64(est.Delay)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s @ vdd=%g f=%g: %s = %v (%#x), Evaluate says %v (%#x)",
					name, vdd[i], f[i], c.what, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
			}
		}
	}
}
