package model

import (
	"math"
	"testing"
)

// FuzzEvalColsMatchesEstimate checks the one pair of sweep-form paths
// kept in step by hand: EvalCols over a column of operating points
// must give, bit for bit, what Totals, Area and Delay give for the
// form's Estimate at each point.
//
// mode picks the form's shape: bit 0 adds a second dynamic term, bit 1
// a static current, and bits 2–4 (term one) and 5–7 (term two) force
// FMul to 1, Swing to 0 and FConst to 0, the values EvalCols
// special-cases.  The operating points cross the fuzzed vdd and f with
// a supply at the DelayScale threshold, one below it and two above,
// and with f = 0.
func FuzzEvalColsMatchesEstimate(f *testing.F) {
	const rail, unit, noConst = 1 << 3, 1 << 2, 1 << 4
	for _, mode := range []uint8{
		rail | unit | noConst,               // full swing at f
		rail | noConst | 1<<1,               // full swing at act·f, leakage
		unit | noConst | 1 | (rail|unit)<<3, // partial swing at f, then a refresh term
		noConst | 1 | 1<<1,                  // partial swing at act·f, two terms, leakage
		rail | 1<<1 | 1 | rail<<3,           // two refresh-clocked terms
		unit,                                // partial swing, refresh clock
	} {
		f.Add(mode, 2e-12, 0.4, 0.5, 4e6, 3e-13, 0.3, 0.25, 1e6, 2e-9, 1e-7, 8e-9, 1.1, 2e6)
	}
	f.Add(uint8(0xff), 1e300, 1e300, 1e300, 1e300, -1.0, math.Inf(1), 0.0, -3.0, math.Inf(-1), 1e-300, 0.0, 0.7, math.Inf(1))
	f.Fuzz(func(t *testing.T, mode uint8, c1, s1, m1, k1, c2, s2, m2, k2, cur, area, delay0, vdd, freq float64) {
		for _, v := range []float64{c1, s1, m1, k1, c2, s2, m2, k2, cur, area, delay0, vdd, freq} {
			if math.IsNaN(v) {
				// Go leaves the payload of a NaN operand's result
				// unspecified, and validated parameters are never NaN.
				t.Skip()
			}
		}
		term := func(bits uint8, csw, swing, fmul, fconst float64) SweepTerm {
			t := SweepTerm{Label: "t", Csw: csw, Swing: swing, FMul: fmul, FConst: fconst}
			if bits&1 != 0 {
				t.FMul = 1
			}
			if bits&2 != 0 {
				t.Swing = 0
			}
			if bits&4 != 0 {
				t.FConst = 0
			}
			return t
		}
		var sf SweepForm
		sf.AddTerm(term(mode>>2, c1, s1, m1, k1))
		if mode&1 != 0 {
			sf.AddTerm(term(mode>>5, c2, s2, m2, k2))
		}
		if mode&2 != 0 {
			sf.AddCurrent("i", cur)
		}
		sf.Area, sf.Delay0 = area, delay0

		var vdds, fs []float64
		for _, v := range []float64{vdd, 0.5, Vt, 1.5, 3.3} {
			for _, fr := range []float64{freq, 0, 2e6} {
				vdds, fs = append(vdds, v), append(fs, fr)
			}
		}
		n := len(vdds)
		ds := make([]float64, n)
		DelayScaleCols(ds, vdds, n)
		pw, dyn, stat := make([]float64, n), make([]float64, n), make([]float64, n)
		areas, delays := make([]float64, n), make([]float64, n)
		sf.EvalCols(vdds, fs, ds, pw, dyn, stat, areas, delays, n)
		for i := 0; i < n; i++ {
			e := sf.Estimate(Params{ParamVDD: vdds[i], ParamFreq: fs[i]})
			p, d, s, _ := e.Totals()
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"power", pw[i], float64(p)},
				{"dynamic", dyn[i], float64(d)},
				{"static", stat[i], float64(s)},
				{"area", areas[i], float64(e.Area)},
				{"delay", delays[i], float64(e.Delay)},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%+v @ vdd=%g f=%g: EvalCols %s = %v (%#x), Estimate says %v (%#x)",
						sf, vdds[i], fs[i], c.what, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
				}
			}
		}
	})
}

// TestEstimateFromSweepForm pins how a form becomes the Estimate that
// derived Evaluate methods return: terms and labels in form order,
// each term's frequency resolved from f, FMul and FConst, and delay
// scaled to the point's supply.
func TestEstimateFromSweepForm(t *testing.T) {
	var sf SweepForm
	sf.AddTerm(SweepTerm{Label: "logic", Csw: 100e-12, FMul: 1})
	sf.AddTerm(SweepTerm{Label: "bit-lines", Csw: 50e-12, Swing: 0.5, FMul: 0.5})
	sf.AddCurrent("bias", 10e-6)
	sf.Area, sf.Delay0 = 1e-6, 2e-9
	e := sf.Estimate(Params{ParamVDD: 1.5, ParamFreq: 2e6})
	want := []Contribution{
		{Label: "logic", Csw: 100e-12, Freq: 2e6},
		{Label: "bit-lines", Csw: 50e-12, Vswing: 0.5, Freq: 1e6},
	}
	if len(e.Dynamic) != len(want) || e.Dynamic[0] != want[0] || e.Dynamic[1] != want[1] {
		t.Errorf("Dynamic = %+v, want %+v", e.Dynamic, want)
	}
	if len(e.Static) != 1 || e.Static[0] != (StaticTerm{Label: "bias", I: 10e-6}) {
		t.Errorf("Static = %+v", e.Static)
	}
	if e.VDD != 1.5 || e.Area != 1e-6 || e.Delay != 2e-9 || e.Notes != nil {
		t.Errorf("VDD %v, Area %v, Delay %v, Notes %v", e.VDD, e.Area, e.Delay, e.Notes)
	}

	var refresh SweepForm
	refresh.AddTerm(SweepTerm{Label: "refresh", Csw: 1e-12, FConst: 4096})
	if e := refresh.Estimate(Params{ParamVDD: 1, ParamFreq: 2e6}); e.Dynamic[0].Freq != 4096 || e.Static != nil {
		t.Errorf("FConst term: %+v", e)
	}
}
