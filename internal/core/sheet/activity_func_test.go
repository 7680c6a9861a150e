package sheet

import (
	"math"
	"testing"

	"powerplay/internal/activity"
)

func TestDbtactInSheet(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	// Two identical cells: one with random data, one carrying a
	// narrow, strongly correlated signal.
	white := d.Root.MustAddChild("white", "cell")
	setParamValue(white, "bits", 16, "16")
	corr := d.Root.MustAddChild("corr", "cell")
	setParamValue(corr, "bits", 16, "16")
	if err := corr.SetParam("act", "dbtact(512, 0.97, 16)"); err != nil {
		t.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	pWhite := float64(r.Find("white").Power)
	pCorr := float64(r.Find("corr").Power)
	if pCorr >= pWhite {
		t.Errorf("correlated signal should price lower: %v vs %v", pCorr, pWhite)
	}
	// The power ratio equals the activity scale exactly.
	want := activity.Stats{Std: 512, Rho: 0.97}.ActScale(16)
	if got := pCorr / pWhite; math.Abs(got-want) > 1e-9 {
		t.Errorf("power ratio = %v, want %v", got, want)
	}
	if got := r.Find("corr").Params["act"]; math.Abs(got-want) > 1e-12 {
		t.Errorf("act = %v, want %v", got, want)
	}
}

func TestSignactInSheet(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	if err := d.Root.SetGlobal("a", "signact(0)"); err != nil {
		t.Fatal(err)
	}
	n := d.Root.MustAddChild("x", "cell")
	n.SetParam("act", "a")
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Find("x").Params["act"]; got != 0.5 {
		t.Errorf("signact(0) = %v, want 0.5", got)
	}
}

func TestDbtactErrors(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	cases := []string{
		"dbtact(1, 0)",          // arity
		"dbtact(0, 0.5, 16)",    // std must be positive
		"dbtact(10, 1.5, 16)",   // rho out of range
		"dbtact(10, 0.5, 9999)", // bits out of range
		`dbtact("a", 0.5, 16)`,  // string arg
		"signact()",             // arity
	}
	for _, src := range cases {
		d2 := NewDesign("demo", testRegistry())
		d2.Root.SetGlobalValue("vdd", 1.5, "1.5")
		d2.Root.SetGlobalValue("f", 1e6, "1e6")
		n := d2.Root.MustAddChild("x", "cell")
		if err := n.SetParam("act", src); err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, err := d2.Evaluate(); err == nil {
			t.Errorf("%q should fail at evaluation", src)
		}
	}
	_ = d
}

// The cell in testRegistry ignores "act"; a realistic check against a
// library cell lives in the facade tests.  This test just pins that the
// white cell's power is unaffected by binding act (schema allows it).
func TestDbtactDeck(t *testing.T) {
	deck := `
design d
var vdd = 1.5
var f = 1e6
row x cell bits=8 act=dbtact(256,0.9,8)
`
	d, err := ParseDeck(deck, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	want := activity.Stats{Std: 256, Rho: 0.9}.ActScale(8)
	if got := r.Find("x").Params["act"]; math.Abs(got-want) > 1e-12 {
		t.Errorf("deck dbtact = %v, want %v", got, want)
	}
}
