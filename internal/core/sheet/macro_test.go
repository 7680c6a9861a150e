package sheet

import (
	"reflect"
	"strings"
	"testing"

	"powerplay/internal/core/model"
)

func buildSubDesign(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("videochip", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	setParamValue(d.Root.MustAddChild("lut", "cell"), "bits", 64, "64")
	setParamValue(d.Root.MustAddChild("reg", "cell"), "bits", 6, "6")
	return d
}

func TestMacroLumpsDesign(t *testing.T) {
	sub := buildSubDesign(t)
	subResult, err := sub.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	mac, err := NewMacro("macro.video", "Video chip", "lumped Figure 2 sheet", sub)
	if err != nil {
		t.Fatal(err)
	}
	// The macro exposes the root globals as parameters.
	info := mac.Info()
	if info.Class != model.Macro {
		t.Errorf("class = %v", info.Class)
	}
	names := map[string]bool{}
	for _, p := range info.Params {
		names[p.Name] = true
	}
	if !names["vdd"] || !names["f"] {
		t.Errorf("macro params = %v", info.Params)
	}
	// Evaluated at its defaults, the macro reproduces the design total.
	est, err := model.Evaluate(mac, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(est.Power()), float64(subResult.Power)) {
		t.Errorf("macro power %v, design %v", est.Power(), subResult.Power)
	}
	if !almost(float64(est.Area), float64(subResult.Area)) {
		t.Errorf("macro area %v, design %v", est.Area, subResult.Area)
	}
}

func TestMacroRescalesWithSupply(t *testing.T) {
	sub := buildSubDesign(t)
	mac, err := NewMacro("m", "", "", sub)
	if err != nil {
		t.Fatal(err)
	}
	base, err := model.Evaluate(mac, model.Params{"vdd": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := model.Evaluate(mac, model.Params{"vdd": 3.0})
	if err != nil {
		t.Fatal(err)
	}
	// The inner sheet re-plays at 3 V: quadratic power growth flows
	// through the lump.
	if !almost(float64(boosted.Power()), 4*float64(base.Power())) {
		t.Errorf("macro should rescale: %v vs %v", boosted.Power(), base.Power())
	}
}

func TestMacroInSheet(t *testing.T) {
	// The paper's use: the video chip macro becomes one row of the
	// system sheet.
	sub := buildSubDesign(t)
	mac, err := NewMacro("macro.video", "Video chip", "", sub)
	if err != nil {
		t.Fatal(err)
	}
	reg := testRegistry()
	reg.MustRegister(mac)
	sys := NewDesign("system", reg)
	sys.Root.SetGlobalValue("vdd", 1.5, "1.5")
	sys.Root.SetGlobalValue("f", 1e6, "1e6")
	sys.Root.MustAddChild("video", "macro.video")
	sys.Root.MustAddChild("other", "cell")
	r, err := sys.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	subR, _ := sub.EvaluateAt(map[string]float64{"f": 1e6}) // system f inherited
	if !almost(float64(r.Find("video").Power), float64(subR.Power)) {
		t.Errorf("macro row power %v, sub design at 1MHz %v", r.Find("video").Power, subR.Power)
	}
}

func TestMacroValidation(t *testing.T) {
	if _, err := NewMacro("", "", "", nil); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewMacro("m", "", "", nil); err == nil {
		t.Error("nil design should fail")
	}
	// A broken design cannot be published.
	bad := NewDesign("bad", testRegistry())
	bad.Root.MustAddChild("x", "nosuch")
	if _, err := NewMacro("m", "", "", bad); err == nil {
		t.Error("unevaluable design should fail")
	}
}

func TestDesignJSONRoundTrip(t *testing.T) {
	d := buildSubDesign(t)
	d.Doc = "two-row test design"
	d.Root.MustAddChild("conv", "loss").SetParam("pload", `power("lut")`)
	blob, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDesign(blob, d.Registry)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(r1.Power), float64(r2.Power)) {
		t.Errorf("round trip changed power: %v vs %v", r1.Power, r2.Power)
	}
	if d2.Doc != d.Doc || d2.Name != d.Name {
		t.Error("metadata lost")
	}
	// Parameter expression sources survive.
	if d2.Root.Find("conv").Param("pload").Source() != `power("lut")` {
		t.Error("expression source lost")
	}
}

func TestParseDesignErrors(t *testing.T) {
	reg := testRegistry()
	cases := []string{
		"not json",
		`{}`, // no name
		`{"name":"d","root":{"name":"d","children":[{"name":"bad name"}]}}`,
		`{"name":"d","root":{"name":"d","children":[{"name":"a"},{"name":"a"}]}}`,
		`{"name":"d","root":{"name":"d","params":[{"name":"p","expr":"1+"}]}}`,
		`{"name":"d","root":{"name":"d","globals":[{"name":"g","expr":")("}]}}`,
	}
	for _, src := range cases {
		if _, err := ParseDesign([]byte(src), reg); err == nil {
			t.Errorf("ParseDesign(%q) should fail", src)
		}
	}
}

func TestReportRendersSpreadsheet(t *testing.T) {
	d := buildSubDesign(t)
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	Report(&b, d, r)
	out := b.String()
	for _, want := range []string{"videochip summary", "lut", "reg", "TOTAL", "vdd", "f", "Energy/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBreakdownSorted(t *testing.T) {
	d := buildSubDesign(t)
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	rows := Breakdown(r)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if !strings.Contains(rows[0], "lut") {
		t.Errorf("largest consumer first: %v", rows)
	}
	if !strings.Contains(rows[0], "%") {
		t.Error("percent column missing")
	}
}

// TestMacroParamsFixedAtNewMacro: a macro's parameter list is fixed
// when it is made, so editing the inner design's globals after Register
// changes neither the registered schema nor the model's Info.
func TestMacroParamsFixedAtNewMacro(t *testing.T) {
	sub := buildSubDesign(t)
	mac, err := NewMacro("macro.video", "Video chip", "", sub)
	if err != nil {
		t.Fatal(err)
	}
	reg := testRegistry()
	reg.MustRegister(mac)
	_, before, _ := reg.Resolve("macro.video")
	want := append([]model.Param(nil), before.Params()...)

	sub.Root.SetGlobalValue("vdd", 3.3, "3.3")
	sub.Root.SetGlobalValue("extra", 7, "7")
	_, after, _ := reg.Resolve("macro.video")
	for name, got := range map[string][]model.Param{"registered schema": after.Params(), "Info": mac.Info().Params} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s after editing the inner design: %v, want %v", name, got, want)
		}
	}
}
