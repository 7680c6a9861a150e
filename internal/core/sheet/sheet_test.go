package sheet

import (
	"math"
	"strings"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/expr"
	"powerplay/internal/units"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// testRegistry builds a small library: a width-linear cell and a
// converter-style cell exercising inter-model power().
func testRegistry() *model.Registry {
	r := model.NewRegistry()
	r.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "cell", Title: "test cell", Class: model.Computation, Doc: "d",
			Params: model.WithStd(
				model.Param{Name: "bits", Default: 8, Min: 1, Max: 1024, Integer: true},
				model.Param{Name: "act", Default: 1, Min: 0, Max: 2},
			),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["act"]*p["bits"]*100e-15), p.Freq())
			e.Area = units.SquareMeters(p["bits"] * 1e-9)
			e.Delay = units.Seconds(p["bits"] * 1e-9)
			return e, nil
		},
	})
	r.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "loss", Title: "converter", Class: model.Converter, Doc: "d",
			Params: model.WithStd(
				model.Param{Name: "pload", Default: 0, Min: 0, Max: 1e6},
				model.Param{Name: "eta", Default: 0.8, Min: 0.01, Max: 1},
			),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			diss := p["pload"] * (1 - p["eta"]) / p["eta"]
			e.AddStatic("loss", units.Amps(diss/float64(p.VDD())))
			return e, nil
		},
	})
	return r
}

func TestBasicSheet(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	a := d.Root.MustAddChild("alpha", "cell")
	if err := a.SetParam("bits", "16"); err != nil {
		t.Fatal(err)
	}
	b := d.Root.MustAddChild("beta", "cell")
	if err := b.SetParam("bits", "8"); err != nil {
		t.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// P = bits·100fF·V²·f each.
	wantA := 16 * 100e-15 * 2.25 * 2e6
	wantB := 8 * 100e-15 * 2.25 * 2e6
	if got := float64(r.Find("alpha").Power); !almost(got, wantA) {
		t.Errorf("alpha = %v, want %v", got, wantA)
	}
	if got := float64(r.Power); !almost(got, wantA+wantB) {
		t.Errorf("total = %v, want %v", got, wantA+wantB)
	}
	// Area sums; delay is the max.
	if got := float64(r.Area); !almost(got, 24e-9) {
		t.Errorf("area = %v", got)
	}
	if got := float64(r.Delay); !almost(got, 16e-9) {
		t.Errorf("delay = %v", got)
	}
}

func TestScopeInheritanceAndShadowing(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 3, "3")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	sub := d.Root.MustAddChild("sub", "")
	sub.SetGlobalValue("vdd", 1.5, "1.5") // shadow at the subtree
	inner := sub.MustAddChild("inner", "cell")
	_ = inner
	outer := d.Root.MustAddChild("outer", "cell")
	_ = outer
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	pInner := float64(r.Find("sub/inner").Power)
	pOuter := float64(r.Find("outer").Power)
	// Same cell: power ratio should be (3/1.5)² = 4.
	if !almost(pOuter, 4*pInner) {
		t.Errorf("shadowed supply: outer %v, inner %v", pOuter, pInner)
	}
}

func TestGlobalExpressionsAndDerivedVars(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	if err := d.Root.SetGlobal("fread", "f/16"); err != nil {
		t.Fatal(err)
	}
	n := d.Root.MustAddChild("mem", "cell")
	if err := n.SetParam("f", "fread"); err != nil {
		t.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * 100e-15 * 2.25 * 125e3
	if got := float64(r.Power); !almost(got, want) {
		t.Errorf("derived frequency: %v, want %v", got, want)
	}
}

func TestInterModelPower(t *testing.T) {
	// The converter's load is the sum of its siblings — EQ 19 wired
	// through the sheet, the paper's inter-model interaction.
	d := NewDesign("system", testRegistry())
	d.Root.SetGlobalValue("vdd", 5, "5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	setParamValue(d.Root.MustAddChild("radio", "cell"), "bits", 100, "100")
	setParamValue(d.Root.MustAddChild("cpu", "cell"), "bits", 50, "50")
	conv := d.Root.MustAddChild("conv", "loss")
	if err := conv.SetParam("pload", `power("radio") + power("cpu")`); err != nil {
		t.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	pRadio := float64(r.Find("radio").Power)
	pCPU := float64(r.Find("cpu").Power)
	wantLoss := (pRadio + pCPU) * 0.25
	if got := float64(r.Find("conv").Power); !almost(got, wantLoss) {
		t.Errorf("conv = %v, want %v", got, wantLoss)
	}
	if got := float64(r.Power); !almost(got, pRadio+pCPU+wantLoss) {
		t.Errorf("total = %v", got)
	}
}

func TestInterModelAreaAndDelay(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	setParamValue(d.Root.MustAddChild("datapath", "cell"), "bits", 64, "64")
	probe := d.Root.MustAddChild("probe", "cell")
	// Contrived but exercises area()/delay(): bits from sibling area.
	if err := probe.SetParam("bits", `area("datapath") * 1e9 / 8`); err != nil {
		t.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Find("probe").Params["bits"]; !almost(got, 8) {
		t.Errorf("probe bits = %v, want 8", got)
	}
}

func TestRowCycleDetected(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 5, "5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	a := d.Root.MustAddChild("a", "loss")
	b := d.Root.MustAddChild("b", "loss")
	a.SetParam("pload", `power("b")`)
	b.SetParam("pload", `power("a")`)
	_, err := d.Evaluate()
	if err == nil || !strings.Contains(err.Error(), "circular dependency") {
		t.Errorf("err = %v", err)
	}
}

func TestGlobalCycleDetected(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobal("x", "y+1")
	d.Root.SetGlobal("y", "x+1")
	d.Root.MustAddChild("n", "cell").SetParam("bits", "x")
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	_, err := d.Evaluate()
	if err == nil || !strings.Contains(err.Error(), "circular definition") {
		t.Errorf("err = %v", err)
	}
}

func TestErrorsCarryRowPath(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	sub := d.Root.MustAddChild("sub", "")
	sub.MustAddChild("leaf", "nosuchmodel")
	_, err := d.Evaluate()
	ee, ok := err.(*EvalError)
	if !ok {
		t.Fatalf("want *EvalError, got %T: %v", err, err)
	}
	if ee.Path != "sub/leaf" {
		t.Errorf("path = %q", ee.Path)
	}
	// Unbound variable in a param.
	d2 := NewDesign("demo", testRegistry())
	d2.Root.MustAddChild("x", "cell").SetParam("bits", "undefined_var")
	if _, err := d2.Evaluate(); err == nil {
		t.Error("unbound variable should fail")
	}
	// Unknown row in power().
	d3 := NewDesign("demo", testRegistry())
	d3.Root.SetGlobalValue("vdd", 5, "5")
	d3.Root.SetGlobalValue("f", 1e6, "1e6")
	d3.Root.MustAddChild("c", "loss").SetParam("pload", `power("ghost")`)
	if _, err := d3.Evaluate(); err == nil || !strings.Contains(err.Error(), "no such row") {
		t.Errorf("err = %v", err)
	}
}

func TestEvaluateAtOverrides(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	d.Root.MustAddChild("x", "cell")
	base, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	swept, err := d.EvaluateAt(map[string]float64{"vdd": 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(swept.Power), 4*float64(base.Power)) {
		t.Errorf("sweep: %v vs base %v", swept.Power, base.Power)
	}
	// The design itself is unchanged.
	again, _ := d.Evaluate()
	if again.Power != base.Power {
		t.Error("EvaluateAt must not mutate the design")
	}
}

func TestNodeTreeOps(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	a := d.Root.MustAddChild("a", "")
	b := a.MustAddChild("b", "cell")
	if b.Path() != "a/b" || a.Path() != "a" || d.Root.Path() != "" {
		t.Errorf("paths: %q %q %q", b.Path(), a.Path(), d.Root.Path())
	}
	if d.Root.Find("a/b") != b || d.Root.Find("a.b") != b {
		t.Error("Find with both separators")
	}
	if d.Root.Find("a/zz") != nil {
		t.Error("Find miss should be nil")
	}
	if b.Parent() != a {
		t.Error("Parent")
	}
	// Duplicate and invalid names rejected.
	if _, err := d.Root.AddChild("a", ""); err == nil {
		t.Error("duplicate should fail")
	}
	if _, err := d.Root.AddChild("bad name", ""); err == nil {
		t.Error("space in name should fail")
	}
	if _, err := d.Root.AddChild("9lead", ""); err == nil {
		t.Error("leading digit should fail")
	}
	// Remove.
	if !a.RemoveChild("b") || a.RemoveChild("b") {
		t.Error("RemoveChild")
	}
	// Param/global CRUD.
	setParamValue(a, "bits", 4, "4")
	if a.Param("bits") == nil {
		t.Error("Param")
	}
	if !a.DeleteParam("bits") || a.DeleteParam("bits") {
		t.Error("DeleteParam")
	}
	a.SetGlobalValue("g", 1, "1")
	if a.Global("g") == nil {
		t.Error("Global")
	}
	if !a.DeleteGlobal("g") || a.DeleteGlobal("g") {
		t.Error("DeleteGlobal")
	}
	if err := a.SetParam("bits", "1 +"); err == nil {
		t.Error("bad expression should fail")
	}
	if err := a.SetGlobal("g", "1 +"); err == nil {
		t.Error("bad global expression should fail")
	}
	if err := a.SetGlobal("bad name", "1"); err == nil {
		t.Error("bad variable name should fail")
	}
}

func TestResolveSiblingFirst(t *testing.T) {
	// Two rows named "mem" at different levels: a reference from deep in
	// the tree should find the nearest one.
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 5, "5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	setParamValue(d.Root.MustAddChild("mem", "cell"), "bits", 1000, "1000")
	sub := d.Root.MustAddChild("sub", "")
	setParamValue(sub.MustAddChild("mem", "cell"), "bits", 1, "1")
	conv := sub.MustAddChild("conv", "loss")
	conv.SetParam("pload", `power("mem")`)
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	pSmall := float64(r.Find("sub/mem").Power)
	if got := float64(r.Find("sub/conv").Power); !almost(got, 0.25*pSmall) {
		t.Errorf("should have bound the sibling mem: %v vs %v", got, 0.25*pSmall)
	}
}

// setParamValue binds a parameter to a literal, keeping its spelling.
func setParamValue(n *Node, name string, v float64, text string) {
	set(&n.Params, name, expr.Literal(v, text))
	n.bump()
}
