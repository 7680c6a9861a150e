package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"powerplay/internal/units"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestEstimatePowerEQ1(t *testing.T) {
	// One full-swing term, one partial-swing term, one static term:
	// P = C1·VDD²·f1 + C2·Vsw·VDD·f2 + I·VDD.
	e := &Estimate{VDD: 1.5}
	e.AddCap("logic", 100*units.PicoFarad, 2*units.MegaHertz)
	e.AddSwing("bit-lines", 50*units.PicoFarad, 0.5, 1*units.MegaHertz)
	e.AddStatic("bias", 10*units.MicroAmp)

	want := 100e-12*1.5*1.5*2e6 + 50e-12*0.5*1.5*1e6 + 10e-6*1.5
	if got := float64(e.Power()); !almost(got, want) {
		t.Errorf("Power = %v, want %v", got, want)
	}
	if got := float64(e.DynamicPower()); !almost(got, want-10e-6*1.5) {
		t.Errorf("DynamicPower = %v", got)
	}
	if got := float64(e.StaticPower()); !almost(got, 10e-6*1.5) {
		t.Errorf("StaticPower = %v", got)
	}
	if got := float64(e.SwitchedCap()); !almost(got, 150e-12) {
		t.Errorf("SwitchedCap = %v", got)
	}
	wantE := 100e-12*1.5*1.5 + 50e-12*0.5*1.5
	if got := float64(e.EnergyPerOp()); !almost(got, wantE) {
		t.Errorf("EnergyPerOp = %v, want %v", got, wantE)
	}
}

func TestPowerDecomposition(t *testing.T) {
	// Property: Power == DynamicPower + StaticPower for arbitrary terms.
	f := func(caps [4]float64, freqs [4]float64, cur [2]float64, vdd float64) bool {
		vdd = 0.5 + math.Abs(math.Mod(vdd, 5))
		e := &Estimate{VDD: units.Volts(vdd)}
		for i := range caps {
			c := math.Abs(math.Mod(caps[i], 1e-9))
			fr := math.Abs(math.Mod(freqs[i], 1e9))
			e.AddCap("c", units.Farads(c), units.Hertz(fr))
		}
		for i := range cur {
			e.AddStatic("i", units.Amps(math.Abs(math.Mod(cur[i], 1e-3))))
		}
		total := float64(e.Power())
		parts := float64(e.DynamicPower()) + float64(e.StaticPower())
		return almost(total, parts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroSwingMeansFullRail(t *testing.T) {
	full := &Estimate{VDD: 2}
	full.AddCap("x", units.PicoFarad, units.MegaHertz)
	part := &Estimate{VDD: 2}
	part.AddSwing("x", units.PicoFarad, 2, units.MegaHertz)
	if full.Power() != part.Power() {
		t.Errorf("explicit full swing %v != implicit %v", part.Power(), full.Power())
	}
}

func TestNotes(t *testing.T) {
	e := &Estimate{}
	e.Note("signal correlations neglected (%s estimate)", "conservative")
	if len(e.Notes) != 1 || e.Notes[0] != "signal correlations neglected (conservative estimate)" {
		t.Errorf("Notes = %v", e.Notes)
	}
}

// TestNoteMatchesSprintf: Note's constant-note shortcut records exactly
// what fmt.Sprintf would, with and without verbs and arguments.
func TestNoteMatchesSprintf(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"fixed power", nil},
		{"", nil},
		{"µm² \xff\x00 <b>", nil},
		{"100% duty", nil},
		{"%%", nil},
		{"%d bits", []any{16}},
		{"%s", []any{"x"}},
		{"no verb", []any{1}},
	}
	for _, c := range cases {
		e := &Estimate{}
		e.Note(c.format, c.args...)
		if want := fmt.Sprintf(c.format, c.args...); len(e.Notes) != 1 || e.Notes[0] != want {
			t.Errorf("Note(%q, %v) = %q, want %q", c.format, c.args, e.Notes, want)
		}
	}
}

func TestCapScale(t *testing.T) {
	if CapScale(0) != 1 {
		t.Error("zero tech should mean reference scale")
	}
	if CapScale(RefTech) != 1 {
		t.Error("reference tech should scale by 1")
	}
	if got := CapScale(0.6e-6); !almost(got, 0.5) {
		t.Errorf("half feature size should halve capacitance, got %v", got)
	}
}

func TestParamCheck(t *testing.T) {
	p := Param{Name: "bits", Min: 1, Max: 64, Integer: true}
	if err := p.Check(8); err != nil {
		t.Errorf("Check(8): %v", err)
	}
	for _, bad := range []float64{0, 65, 8.5, math.NaN(), math.Inf(1)} {
		if err := p.Check(bad); err == nil {
			t.Errorf("Check(%v) should fail", bad)
		}
	}
	opt := Param{Name: "corr", Options: []Option{{"uncorrelated", 0}, {"correlated", 1}}}
	if err := opt.Check(1); err != nil {
		t.Errorf("option Check(1): %v", err)
	}
	if err := opt.Check(2); err == nil {
		t.Error("option Check(2) should fail")
	}
}

func TestValidate(t *testing.T) {
	schema := WithStd(
		Param{Name: "bits", Doc: "word width", Default: 8, Min: 1, Max: 128, Integer: true},
		Param{Name: "words", Doc: "word count", Default: 256, Min: 1, Max: 1 << 24, Integer: true},
	)
	got, err := Validate(schema, Params{"bits": 16})
	if err != nil {
		t.Fatal(err)
	}
	if got["bits"] != 16 || got["words"] != 256 || got["vdd"] != 1.5 || got["f"] != 1e6 {
		t.Errorf("defaults not applied: %v", got)
	}
	// Range violation.
	if _, err := Validate(schema, Params{"bits": 0}); err == nil {
		t.Error("bits=0 should fail")
	}
	// Unknown parameter rejected...
	if _, err := Validate(schema, Params{"nope": 1}); err == nil {
		t.Error("unknown param should fail")
	}
	// ...but the conventional scope names always pass even if the schema
	// omits them.
	if _, err := Validate([]Param{}, Params{ParamVDD: 3.3, ParamFreq: 1e6, ParamTech: 0}); err != nil {
		t.Errorf("scope params should pass: %v", err)
	}
	// Input must not be mutated.
	in := Params{"bits": 16}
	if _, err := Validate(schema, in); err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 {
		t.Error("Validate mutated its input")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"vdd": 1.5, "f": 2e6, "bits": 8}
	if p.Get("bits", 0) != 8 || p.Get("missing", 42) != 42 {
		t.Error("Get")
	}
	if p.VDD() != 1.5 || p.Freq() != 2e6 {
		t.Error("VDD/Freq")
	}
	q := p.Clone()
	q["bits"] = 9
	if p["bits"] != 8 {
		t.Error("Clone should be independent")
	}
	if p.String() != "bits=8 f=2e+06 vdd=1.5" {
		t.Errorf("String = %q", p.String())
	}
}

func testModel(name string) Model {
	return &Func{
		Meta: Info{
			Name:   name,
			Title:  "test",
			Class:  Computation,
			Params: WithStd(Param{Name: "bits", Default: 8, Min: 1, Max: 64, Integer: true}),
		},
		Fn: func(p Params) (*Estimate, error) {
			e := &Estimate{VDD: p.VDD()}
			e.AddCap("core", units.Farads(p["bits"]*50e-15), p.Freq())
			return e, nil
		},
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testModel("ucb.add.ripple"))
	r.MustRegister(testModel("ucb.mult.array"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if _, ok := r.Lookup("ucb.add.ripple"); !ok {
		t.Fatal("Lookup failed")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "ucb.add.ripple" || names[1] != "ucb.mult.array" {
		t.Errorf("Names = %v", names)
	}
	if got := r.ByClass(Computation); len(got) != 2 {
		t.Errorf("ByClass = %v", got)
	}
	if got := r.ByClass(Storage); len(got) != 0 {
		t.Errorf("ByClass(Storage) = %v", got)
	}
	// Evaluate with defaults.
	est, err := r.Evaluate("ucb.add.ripple", Params{"vdd": 1.5, "f": 2e6})
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * 50e-15 * 1.5 * 1.5 * 2e6
	if !almost(float64(est.Power()), want) {
		t.Errorf("Power = %v, want %v", est.Power(), want)
	}
	// Evaluate with out-of-range parameter fails validation.
	if _, err := r.Evaluate("ucb.add.ripple", Params{"bits": 1000}); err == nil {
		t.Error("bits=1000 should fail")
	}
	// Missing model.
	if _, err := r.Evaluate("nope", nil); err == nil {
		t.Error("missing model should fail")
	}
	// Unregister.
	if !r.Unregister("ucb.add.ripple") || r.Unregister("ucb.add.ripple") {
		t.Error("Unregister")
	}
	// Empty name rejected.
	if err := r.Register(&Func{}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.MustRegister(testModel("m"))
			r.Unregister("m")
		}
	}()
	for i := 0; i < 200; i++ {
		r.Lookup("m")
		r.Names()
		r.Len()
	}
	<-done
}
