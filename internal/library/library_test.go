package library

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestStandardLibraryComplete(t *testing.T) {
	r := Standard()
	wanted := []string{
		RippleAdder, CLAAdder, SvenssonAdder, ArrayMultiplier, LogShifter,
		Mux, Register, SRAM, LowSwingSRAM, DRAM, PadBuffer, ClockBuffer,
		RandomCtrl, ROMCtrl, PLACtrl, Wire, AnalogBias, AnalogOTA,
		AnalogOTACMOS, DCDC, DCDCCurve, GenericCPU, FixedPart,
	}
	for _, name := range wanted {
		m, ok := r.Lookup(name)
		if !ok {
			t.Errorf("library missing %q", name)
			continue
		}
		info := m.Info()
		if info.Doc == "" {
			t.Errorf("%s: missing documentation", name)
		}
		if info.Title == "" {
			t.Errorf("%s: missing title", name)
		}
		// Every cell evaluates at its own defaults.
		est, err := model.Evaluate(m, nil)
		if err != nil {
			t.Errorf("%s at defaults: %v", name, err)
			continue
		}
		if p := float64(est.Power()); math.IsNaN(p) || p < 0 {
			t.Errorf("%s: bad default power %v", name, p)
		}
	}
	if r.Len() != len(wanted) {
		t.Errorf("library has %d cells, test covers %d", r.Len(), len(wanted))
	}
}

func TestLibraryClasses(t *testing.T) {
	r := Standard()
	if got := r.ByClass(model.Computation); len(got) < 6 {
		t.Errorf("computation cells = %v", got)
	}
	if got := r.ByClass(model.Storage); len(got) != 4 {
		t.Errorf("storage cells = %v", got)
	}
	if got := r.ByClass(model.Controller); len(got) != 3 {
		t.Errorf("controller cells = %v", got)
	}
}

func TestMultiplierPaperCoefficient(t *testing.T) {
	// The one number the paper prints verbatim: 253 fF · bwA · bwB.
	r := Standard()
	est, err := r.Evaluate(ArrayMultiplier, model.Params{"bwA": 8, "bwB": 8, "vdd": 1.5, "f": 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(est.SwitchedCap()); !almost(got, 64*253e-15) {
		t.Errorf("C_T = %v, want 64×253fF", units.Farads(got))
	}
}

func TestLowSwingDefaultsDiffer(t *testing.T) {
	r := Standard()
	p := model.Params{"words": 1024, "bits": 16, "vdd": 1.5, "f": 1e6}
	rail, err := r.Evaluate(SRAM, p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	low, err := r.Evaluate(LowSwingSRAM, p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if float64(low.Power()) >= float64(rail.Power()) {
		t.Errorf("low-swing variant should default cheaper: %v vs %v", low.Power(), rail.Power())
	}
}

func TestFixedModel(t *testing.T) {
	f := &Fixed{Name: "lcd", DefaultPower: 0.445, DefaultVDD: 5}
	est, err := model.Evaluate(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(est.Power()); !almost(got, 0.445) {
		t.Errorf("P = %v, want 0.445", got)
	}
	// Duty cycling.
	est, err = model.Evaluate(f, model.Params{"act": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(est.Power()); !almost(got, 0.2225) {
		t.Errorf("P = %v, want 0.2225", got)
	}
	// Not voltage scaled: power identical at another supply.
	est, err = model.Evaluate(f, model.Params{"vdd": 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(est.Power()); !almost(got, 0.445) {
		t.Errorf("data-sheet power should not rescale, got %v", got)
	}
}

func TestEquationModel(t *testing.T) {
	q := &Equation{
		Name:  "user.accmul",
		Title: "Multiply-accumulate",
		Doc:   "entered through the model form",
		Params: []EquationParam{
			{Name: "bits", Doc: "width", Default: 8, Min: 1, Max: 64, Integer: true},
		},
		Csw: "bits*bits*253f + bits*48f",
	}
	if err := q.Compile(); err != nil {
		t.Fatal(err)
	}
	est, err := model.Evaluate(q, model.Params{"bits": 8, "vdd": 1.5, "f": 2e6})
	if err != nil {
		t.Fatal(err)
	}
	wantC := 64*253e-15 + 8*48e-15
	if got := float64(est.SwitchedCap()); !almost(got, wantC) {
		t.Errorf("C_T = %v, want %v", got, wantC)
	}
	wantP := wantC * 2.25 * 2e6
	if got := float64(est.Power()); !almost(got, wantP) {
		t.Errorf("P = %v, want %v", got, wantP)
	}
}

func TestEquationModelAllQuantities(t *testing.T) {
	q := &Equation{
		Name:    "user.full",
		Params:  []EquationParam{{Name: "n", Default: 4, Min: 1, Max: 100}},
		Csw:     "n*1p",
		Vswing:  "0.4",
		Istatic: "n*1u",
		Area:    "n*100e-12",
		Delay:   "n*1n",
		Freq:    "f/2",
	}
	est, err := model.Evaluate(q, model.Params{"vdd": 2, "f": 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// P = C·Vsw·VDD·(f/2) + I·VDD.
	want := 4e-12*0.4*2*0.5e6 + 4e-6*2
	if got := float64(est.Power()); !almost(got, want) {
		t.Errorf("P = %v, want %v", got, want)
	}
	if got := float64(est.Area); !almost(got, 400e-12) {
		t.Errorf("Area = %v", got)
	}
	if got := float64(est.Delay); !almost(got, 4e-9*model.DelayScale(2)) {
		t.Errorf("Delay = %v", got)
	}
}

func TestEquationModelErrors(t *testing.T) {
	// No quantities at all.
	if err := (&Equation{Name: "e"}).Compile(); err == nil {
		t.Error("empty model should fail to compile")
	}
	// Syntax error in an expression.
	if err := (&Equation{Name: "e", Csw: "1 +"}).Compile(); err == nil {
		t.Error("bad csw should fail")
	}
	// Negative capacitance at runtime.
	q := &Equation{Name: "e", Csw: "0 - 1p"}
	if err := q.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Evaluate(q, nil); err == nil {
		t.Error("negative capacitance should fail at evaluation")
	}
	// Unknown variable at runtime.
	q2 := &Equation{Name: "e2", Csw: "nosuch*1p"}
	if err := q2.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Evaluate(q2, nil); err == nil {
		t.Error("unbound variable should fail at evaluation")
	}
	// Lazy compile path via Evaluate.
	q3 := &Equation{Name: "e3", Csw: "1p"}
	if _, err := model.Evaluate(q3, nil); err != nil {
		t.Errorf("lazy compile: %v", err)
	}
}

func TestEquationJSONRoundTrip(t *testing.T) {
	src := `{
	  "name": "user.filter",
	  "title": "FIR tap",
	  "class": "computation",
	  "doc": "one multiply-add tap",
	  "params": [{"name": "bits", "default": 12, "min": 1, "max": 64, "integer": true}],
	  "csw": "bits*bits*253f",
	  "area": "bits*bits*2500e-12"
	}`
	q, err := ParseEquation([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "user.filter" || q.Info().Class != model.Computation {
		t.Errorf("parsed = %+v", q)
	}
	est, err := model.Evaluate(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(est.SwitchedCap()); !almost(got, 144*253e-15) {
		t.Errorf("C_T = %v", got)
	}
	buf, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseEquation(buf)
	if err != nil {
		t.Fatalf("re-parse: %v (json: %s)", err, buf)
	}
	if q2.Csw != q.Csw || len(q2.Params) != 1 {
		t.Errorf("round trip lost data: %+v", q2)
	}
}

func TestParseEquationErrors(t *testing.T) {
	cases := []string{
		"not json",
		`{"csw": "1p"}`,             // missing name
		`{"name": "x"}`,             // no quantities
		`{"name": "x", "csw": ")"}`, // bad expression
	}
	for _, src := range cases {
		if _, err := ParseEquation([]byte(src)); err == nil {
			t.Errorf("ParseEquation(%q) should fail", src)
		}
	}
}

func TestLoadDumpEquations(t *testing.T) {
	r := Standard()
	base := r.Len()
	src := `[
	  {"name": "user.a", "csw": "1p"},
	  {"name": "user.b", "istatic": "10u"}
	]`
	n, err := LoadEquations(r, []byte(src))
	if err != nil || n != 2 {
		t.Fatalf("LoadEquations = %d, %v", n, err)
	}
	if r.Len() != base+2 {
		t.Errorf("registry size = %d", r.Len())
	}
	out, err := DumpEquations(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "user.a") || !strings.Contains(string(out), "user.b") {
		t.Errorf("dump missing models: %s", out)
	}
	// Built-ins are not dumped (they are not Equation models).
	if strings.Contains(string(out), RippleAdder) {
		t.Error("dump should only contain user equation models")
	}
	// Round-trip the dump into a fresh registry.
	r2 := model.NewRegistry()
	if n, err := LoadEquations(r2, out); err != nil || n != 2 {
		t.Fatalf("reload = %d, %v", n, err)
	}
	// Bad list JSON.
	if _, err := LoadEquations(r, []byte("{")); err == nil {
		t.Error("bad list should fail")
	}
	// Bad entry position reported.
	if n, err := LoadEquations(r, []byte(`[{"name":"ok","csw":"1p"},{"bad":true}]`)); err == nil || n != 1 {
		t.Errorf("partial load = %d, %v", n, err)
	}
}
