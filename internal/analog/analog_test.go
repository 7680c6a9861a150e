package analog

import (
	"math"
	"testing"
	"testing/quick"

	"powerplay/internal/core/model"
	"powerplay/internal/core/model/formtest"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestVT(t *testing.T) {
	if !almost(VT(300), 0.02585) {
		t.Errorf("VT(300) = %v", VT(300))
	}
	if VT(400) <= VT(300) {
		t.Error("thermal voltage should grow with temperature")
	}
}

func TestBiasEQ13(t *testing.T) {
	b := &Bias{Name: "analog.bias", Branches: 3}
	e, err := model.Evaluate(b, model.Params{"ibias": 200e-6, "vdd": 3.3})
	if err != nil {
		t.Fatal(err)
	}
	// EQ 13: P = V · ΣI, linear in supply.
	want := 3.3 * 3 * 200e-6
	if got := float64(e.Power()); !almost(got, want) {
		t.Errorf("P = %v, want %v", got, want)
	}
	if float64(e.DynamicPower()) != 0 {
		t.Error("analog model should have no capacitive term")
	}
	// Linear — not quadratic — in supply.
	e2, _ := model.Evaluate(b, model.Params{"ibias": 200e-6, "vdd": 6.6})
	if !almost(float64(e2.Power()), 2*want) {
		t.Errorf("doubling supply should double analog power: %v", e2.Power())
	}
}

func TestAmpByIbias(t *testing.T) {
	a := &TransconductanceAmp{Name: "analog.ota"}
	e, err := model.Evaluate(a, model.Params{"spec": ByIbias, "ibias": 100e-6, "vdd": 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(e.Power()); !almost(got, 3*100e-6) {
		t.Errorf("P = %v, want 300uW", got)
	}
}

func TestAmpByGmEQ17(t *testing.T) {
	a := &TransconductanceAmp{Name: "analog.ota"}
	gm := 1e-3
	e, err := model.Evaluate(a, model.Params{"spec": ByGm, "gm": gm, "vdd": 3, "temp": 300})
	if err != nil {
		t.Fatal(err)
	}
	// EQ 17: P = 2·V·(kT/q)·Gm.
	want := 2 * 3 * VT(300) * gm
	if got := float64(e.Power()); !almost(got, want) {
		t.Errorf("P = %v, want %v", got, want)
	}
}

func TestAmpByRidEQ15(t *testing.T) {
	a := &TransconductanceAmp{Name: "analog.ota"}
	p := model.Params{"spec": ByRid, "rid": 200e3, "beta0": 100, "temp": 300}
	full, err := model.Validate(a.Info().Params, p)
	if err != nil {
		t.Fatal(err)
	}
	i, err := a.TailCurrent(full)
	if err != nil {
		t.Fatal(err)
	}
	// EQ 15 solved for Ibias, then substituted back: Rid must hold.
	rid := 4 * VT(300) * 100 / i
	if !almost(rid, 200e3) {
		t.Errorf("round-trip Rid = %v", rid)
	}
	// Lower impedance spec needs more current.
	p2 := full.Clone()
	p2["rid"] = 100e3
	i2, _ := a.TailCurrent(p2)
	if i2 <= i {
		t.Error("halving Rid should raise the bias current")
	}
}

func TestAmpByRoEQ16(t *testing.T) {
	a := &TransconductanceAmp{Name: "analog.ota"}
	full, err := model.Validate(a.Info().Params, model.Params{"spec": ByRo, "ro": 500e3, "va": 50})
	if err != nil {
		t.Fatal(err)
	}
	i, err := a.TailCurrent(full)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(i, 50/500e3) {
		t.Errorf("Ibias = %v, want V_A/Ro = 100uA", i)
	}
}

// Property: the Gm-specified amplifier burns power proportional to the
// specified transconductance — the EQ 17 performance/power trade.
func TestQuickGmLinear(t *testing.T) {
	a := &TransconductanceAmp{Name: "x"}
	f := func(raw uint16) bool {
		gm := 1e-5 + float64(raw)/65535*1e-2
		e1, err1 := model.Evaluate(a, model.Params{"spec": ByGm, "gm": gm})
		e2, err2 := model.Evaluate(a, model.Params{"spec": ByGm, "gm": 2 * gm})
		if err1 != nil || err2 != nil {
			return false
		}
		return almost(2*float64(e1.Power()), float64(e2.Power()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCMOSOTASquareLaw(t *testing.T) {
	a := &CMOSOTA{Name: "analog.ota.cmos"}
	// gm = 1mA/V with k'=50µ, W/L=20: I_tail = 1e-6/(50e-6·20) = 1 mA.
	full, err := model.Validate(a.Info().Params, model.Params{"spec": ByGm, "gm": 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	i, err := a.TailCurrent(full)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(i, 1e-3) {
		t.Errorf("I_tail = %v, want 1mA", i)
	}
	// Power includes the mirror branches (default 2) at the supply.
	est, err := model.Evaluate(a, model.Params{"spec": ByGm, "gm": 1e-3, "vdd": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(est.Power()), 3*2e-3) {
		t.Errorf("P = %v, want 6mW", est.Power())
	}
	// Square law: doubling gm quadruples the current (vs the bipolar
	// pair's linear EQ 17 relationship) — MOS pays more for speed.
	est2, err := model.Evaluate(a, model.Params{"spec": ByGm, "gm": 2e-3, "vdd": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(est2.Power()), 4*float64(est.Power())) {
		t.Errorf("square law: %v vs %v", est2.Power(), est.Power())
	}
	// Direct bias spec passes through.
	est3, err := model.Evaluate(a, model.Params{"spec": ByIbias, "ibias": 200e-6, "vdd": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(est3.Power()), 3*400e-6) {
		t.Errorf("ibias spec: %v", est3.Power())
	}
}

func TestCMOSvsBipolarEfficiency(t *testing.T) {
	// At equal Gm = 1 mA/V the bipolar pair needs 2·Vt·Gm ≈ 52 µA while
	// the square-law OTA needs 1 mA: the classic gm/I advantage of
	// bipolar, visible straight from the models.
	bip := &TransconductanceAmp{Name: "b"}
	mos := &CMOSOTA{Name: "m"}
	eb, err := model.Evaluate(bip, model.Params{"spec": ByGm, "gm": 1e-3, "vdd": 3})
	if err != nil {
		t.Fatal(err)
	}
	em, err := model.Evaluate(mos, model.Params{"spec": ByGm, "gm": 1e-3, "vdd": 3})
	if err != nil {
		t.Fatal(err)
	}
	if float64(em.Power()) < 5*float64(eb.Power()) {
		t.Errorf("MOS (%v) should cost several times bipolar (%v) at equal Gm", em.Power(), eb.Power())
	}
}

func TestAmpDefaults(t *testing.T) {
	a := &TransconductanceAmp{Name: "x"}
	e, err := model.Evaluate(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Notes) == 0 {
		t.Error("amplifier should document its bias point")
	}
}

// TestSweepFormBias holds the EQ 13 block's kernel to its Evaluate
// over the formtest grid.
func TestSweepFormBias(t *testing.T) {
	b := &Bias{Name: "t.bias", Branches: 3, Area: 1e-8}
	for _, base := range []model.Params{{}, {"ibias": 12e-3, "branches": 4}, {"ibias": 0}} {
		formtest.Check(t, b, base)
	}
}
