package storage

import (
	"math"
	"testing"
	"testing/quick"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ucbSRAM mirrors the library's calibrated UCB low-power SRAM.
func ucbSRAM() *SRAM {
	return &SRAM{
		Name: "ucb.sram", Title: "Low-power SRAM",
		C0:       6.25 * units.PicoFarad,
		CWord:    31.25 * units.FemtoFarad,
		CBit:     500 * units.FemtoFarad,
		CWordBit: 0.6 * units.FemtoFarad,
		CellArea: 120 * units.SquareMicron,
		Delay0:   10e-9,
	}
}

func ev(t *testing.T, m model.Model, p model.Params) *model.Estimate {
	t.Helper()
	e, err := model.Evaluate(m, p)
	if err != nil {
		t.Fatalf("%v: %v", m.Info().Name, err)
	}
	return e
}

func TestSRAMEQ7(t *testing.T) {
	s := ucbSRAM()
	words, bits := 4096.0, 6.0
	e := ev(t, s, model.Params{"words": words, "bits": bits, "vdd": 1.5, "f": 2e6})
	want := 6.25e-12 + words*31.25e-15 + bits*500e-15 + words*bits*0.6e-15
	if got := float64(e.SwitchedCap()); !almost(got, want) {
		t.Errorf("C_T = %v, want %v", got, want)
	}
	// The Figure 2 look-up table: ~152 pF at this organization.
	if got := float64(e.SwitchedCap()); math.Abs(got-152e-12) > 2e-12 {
		t.Errorf("LUT capacitance %v strays from calibration (~152pF)", units.Farads(got))
	}
	// Power at 1.5 V, 2 MHz ≈ 684 µW (the Figure 2 dominant row).
	if got := float64(e.Power()); math.Abs(got-684e-6) > 5e-6 {
		t.Errorf("LUT power %v, want ≈684uW", units.Watts(got))
	}
}

func TestSRAMOrganizationMonotonic(t *testing.T) {
	// Property: capacitance strictly grows in words and in bits.
	s := ucbSRAM()
	f := func(w1, b1 uint16) bool {
		w := float64(w1%4096 + 1)
		b := float64(b1%64 + 1)
		base := mustEv(s, model.Params{"words": w, "bits": b})
		moreWords := mustEv(s, model.Params{"words": w + 1, "bits": b})
		moreBits := mustEv(s, model.Params{"words": w, "bits": b + 1})
		return float64(moreWords.SwitchedCap()) > float64(base.SwitchedCap()) &&
			float64(moreBits.SwitchedCap()) > float64(base.SwitchedCap())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSRAMReducedSwing(t *testing.T) {
	s := ucbSRAM()
	p := model.Params{"words": 1024, "bits": 16, "vdd": 1.5, "f": 1e6}
	rail := ev(t, s, p)
	p2 := p.Clone()
	p2["swing"] = ReducedSwing
	p2["vswing"] = 0.4
	red := ev(t, s, p2)
	if float64(red.Power()) >= float64(rail.Power()) {
		t.Fatalf("reduced swing should save power: %v vs %v", red.Power(), rail.Power())
	}
	// EQ 8 by hand: P = Cfull·V² f + Cbl·Vsw·V·f.
	full, bl := s.split(1024, 16)
	want := float64(full)*1.5*1.5*1e6 + float64(bl)*0.4*1.5*1e6
	if got := float64(red.Power()); !almost(got, want) {
		t.Errorf("EQ8 power = %v, want %v", got, want)
	}
}

func TestSRAMActivityAndLeakage(t *testing.T) {
	s := ucbSRAM()
	s.LeakPerCell = 10e-12 // 10 pA/cell
	idle := ev(t, s, model.Params{"words": 1024, "bits": 8, "act": 0, "vdd": 1.5, "f": 1e6})
	if got := float64(idle.DynamicPower()); got != 0 {
		t.Errorf("idle dynamic power = %v, want 0", got)
	}
	wantLeak := 1024 * 8 * 10e-12 * 1.5
	if got := float64(idle.StaticPower()); !almost(got, wantLeak) {
		t.Errorf("leakage = %v, want %v", got, wantLeak)
	}
}

func TestSRAMDelayGrowsWithWords(t *testing.T) {
	s := ucbSRAM()
	small := ev(t, s, model.Params{"words": 64, "bits": 8})
	big := ev(t, s, model.Params{"words": 65536, "bits": 8})
	if float64(big.Delay) <= float64(small.Delay) {
		t.Error("bigger array should be slower")
	}
}

func TestRegisterFile(t *testing.T) {
	r := &RegisterFile{
		Name: "ucb.reg", CapPerBit: 150 * units.FemtoFarad,
		CapPerCell: 150 * units.FemtoFarad, Delay: 1e-9,
	}
	// Pipeline register: 1 word, 6 bits, act 0.5 at 2 MHz, 1.5 V.
	e := ev(t, r, model.Params{"words": 1, "bits": 6, "vdd": 1.5, "f": 2e6})
	want := (0.5*6*150e-15 + 1*6*150e-15) * 2.25 * 2e6
	if got := float64(e.Power()); !almost(got, want) {
		t.Errorf("register power = %v, want %v", got, want)
	}
	// Clock load burns power even with act=0 (included clock capacitance).
	idle := ev(t, r, model.Params{"words": 1, "bits": 6, "act": 0, "vdd": 1.5, "f": 2e6})
	if float64(idle.Power()) <= 0 {
		t.Error("clock capacitance should dissipate even at zero data activity")
	}
}

func TestDRAM(t *testing.T) {
	d := &DRAM{
		Name: "commodity.dram", C0: 20 * units.PicoFarad,
		CWord: 10 * units.FemtoFarad, CBit: 800 * units.FemtoFarad, CWordBit: 0.05 * units.FemtoFarad,
		RefreshPeriod: 16e-3, CellArea: 8 * units.SquareMicron, Delay0: 60e-9,
	}
	e := ev(t, d, model.Params{"words": 65536, "bits": 16, "vdd": 3.3, "f": 1e6})
	if len(e.Dynamic) != 2 {
		t.Fatalf("want access+refresh terms, got %d", len(e.Dynamic))
	}
	// Refresh persists with zero access activity.
	idle := ev(t, d, model.Params{"words": 65536, "bits": 16, "act": 0, "vdd": 3.3, "f": 1e6})
	if float64(idle.Power()) <= 0 {
		t.Error("refresh should dissipate at idle")
	}
	if float64(idle.Power()) >= float64(e.Power()) {
		t.Error("active should exceed idle")
	}
	// Zero refresh period is a configuration error.
	bad := &DRAM{Name: "x"}
	if _, err := model.Evaluate(bad, nil); err == nil {
		t.Error("zero refresh period should fail")
	}
}

func TestVeendrickDirectPath(t *testing.T) {
	const beta = 1e-4 // A/V²
	tau := units.Seconds(2e-9)
	// Charge grows with headroom cubed.
	q15 := DirectPathCharge(beta, tau, 1.5, 0.7)
	q33 := DirectPathCharge(beta, tau, 3.3, 0.7)
	if q15 <= 0 || q33 <= q15 {
		t.Fatalf("direct path charge: q(1.5)=%v q(3.3)=%v", q15, q33)
	}
	// Below 2·VT there is no direct path at all.
	if q := DirectPathCharge(beta, tau, 1.3, 0.7); q != 0 {
		t.Errorf("VDD < 2VT should have zero short-circuit charge, got %v", q)
	}
	// The effective capacitance C_eff = Q / VDD reproduces P_sc in the
	// EQ 1 template.
	vdd := units.Volts(3.3)
	ceff := units.Farads(DirectPathCharge(beta, tau, vdd, 0.7) / float64(vdd))
	f := 1e6
	psc := beta / 12 * math.Pow(3.3-1.4, 3) * 2e-9 * f
	e := &model.Estimate{VDD: vdd}
	e.AddCap("direct path", ceff, units.Hertz(f))
	if got := float64(e.Power()); !almost(got, psc) {
		t.Errorf("EQ1-folded P_sc = %v, want %v", got, psc)
	}
	// Longer input ramps dissipate more.
	if DirectPathCharge(beta, 2*tau, vdd, 0.7) <= DirectPathCharge(beta, tau, vdd, 0.7) {
		t.Error("slower edges should increase short-circuit charge")
	}
	// Degenerate supplies are safe.
	if DirectPathCharge(beta, tau, 0, 0.7) != 0 {
		t.Error("zero supply should yield zero charge")
	}
}

func TestSchemasEvaluateAtDefaults(t *testing.T) {
	ms := []model.Model{
		ucbSRAM(),
		&RegisterFile{Name: "r", CapPerBit: 1e-15, CapPerCell: 1e-15},
		&DRAM{Name: "d", RefreshPeriod: 16e-3},
	}
	for _, m := range ms {
		if _, err := model.Evaluate(m, nil); err != nil {
			t.Errorf("%s at defaults: %v", m.Info().Name, err)
		}
	}
}

func mustEv(m model.Model, p model.Params) *model.Estimate {
	e, err := model.Evaluate(m, p)
	if err != nil {
		panic(err)
	}
	return e
}
