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
// mode picks the form's terms: bit 0 adds a second dynamic term, bit 1
// a static term, and bits 2–4 (term one) and 5–7 (term two) force
// FMul to 1, Swing to 0 and FConst to 0, the values EvalCols
// special-cases.  shape bit 0 makes the static term a draw of cur
// watts rather than a current of cur amps, and bit 1 makes the form
// untimed.  The operating points cross the fuzzed vdd and f with a zero
// supply, a supply at the DelayScale threshold, one below it and two
// above, and with f = 0.
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
		f.Add(mode, uint8(0), 2e-12, 0.4, 0.5, 4e6, 3e-13, 0.3, 0.25, 1e6, 2e-9, 1e-7, 8e-9, 1.1, 2e6)
	}
	f.Add(uint8(0xff), uint8(0), 1e300, 1e300, 1e300, 1e300, -1.0, math.Inf(1), 0.0, -3.0, math.Inf(-1), 1e-300, 0.0, 0.7, math.Inf(1))
	// Draws and untimed forms: a data-sheet part or a converter's loss
	// (a draw alone, untimed), a bias block (a current alone, untimed),
	// a draw beside dynamic terms, at zero and sub-threshold supplies,
	// f = 0 and P = 0.
	const draw, untimed = 1, 2
	for _, c := range []struct {
		mode, shape    uint8
		cur, vdd, freq float64
	}{
		{1 << 1, draw | untimed, 0.445, 5, 0},
		{1 << 1, draw | untimed, 0.445, 0, 2e6},
		{1 << 1, draw | untimed, 0, 3.3, 0},
		{1 << 1, draw | untimed, 0.25, 0.5, 20e6},
		{1 << 1, draw | untimed, 1e6, Vt, 0},
		{1 << 1, untimed, 48e-3, 0, 0},
		{1 << 1, untimed, 48e-3, 0.6, 1e6},
		{rail | unit | noConst | 1<<1, draw, 0.1, 0, 2e6},
		{rail | unit | noConst | 1<<1, draw, 0.1, Vt, 0},
		{rail | unit | noConst, untimed, 0, 0.5, 0},
	} {
		f.Add(c.mode, c.shape, 2e-12, 0.4, 0.5, 4e6, 3e-13, 0.3, 0.25, 1e6, c.cur, 1e-7, 0.0, c.vdd, c.freq)
	}
	f.Fuzz(func(t *testing.T, mode, shape uint8, c1, s1, m1, k1, c2, s2, m2, k2, cur, area, delay0, vdd, freq float64) {
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
		switch {
		case mode&2 == 0:
		case shape&draw != 0:
			sf.AddDraw("p", cur)
		default:
			sf.AddCurrent("i", cur)
		}
		sf.Area, sf.Delay0, sf.Untimed = area, delay0, shape&untimed != 0

		var vdds, fs []float64
		for _, v := range []float64{vdd, 0, 0.5, Vt, 1.5, 3.3} {
			for _, fr := range []float64{freq, 0, 2e6} {
				vdds, fs = append(vdds, v), append(fs, fr)
			}
		}
		n := len(vdds)
		ds := make([]float64, n)
		DelayScaleCols(ds, vdds, n)
		pw, dyn, stat := make([]float64, n), make([]float64, n), make([]float64, n)
		areas, delays := make([]float64, n), make([]float64, n)
		if sf.Untimed {
			ds = nil // an untimed form reads no DelayScale column
		}
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

	// A draw's current is its power over the supply, and it is absent
	// at a zero supply; an untimed form has no delay even below
	// threshold.
	var part SweepForm
	part.AddDraw("data-sheet draw", 0.5)
	part.Delay0, part.Untimed = 1e-9, true
	if e := part.Estimate(Params{ParamVDD: 2}); len(e.Static) != 1 || e.Static[0] != (StaticTerm{Label: "data-sheet draw", I: 0.25}) || e.Delay != 0 {
		t.Errorf("draw at 2 V: %+v", e)
	}
	if e := part.Estimate(Params{ParamVDD: 0}); e.Static != nil || e.Delay != 0 {
		t.Errorf("draw at 0 V: %+v", e)
	}
}
