package sheet

import (
	"strings"
	"testing"
)

func TestComposeChainDelays(t *testing.T) {
	// A pipeline stage: multiplier feeding an adder along one path —
	// their delays add; a parallel group keeps the max.
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	chain := d.Root.MustAddChild("stage", "")
	chain.Delay = ComposeChain
	setParamValue(chain.MustAddChild("mult", "cell"), "bits", 30, "30") // 30 ns
	setParamValue(chain.MustAddChild("add", "cell"), "bits", 20, "20")  // 20 ns
	par := d.Root.MustAddChild("regs", "")
	setParamValue(par.MustAddChild("a", "cell"), "bits", 8, "8")
	setParamValue(par.MustAddChild("b", "cell"), "bits", 9, "9")
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(r.Find("stage").Delay); !almost(got, 50e-9) {
		t.Errorf("chain delay = %v, want 50ns", got)
	}
	if got := float64(r.Find("regs").Delay); !almost(got, 9e-9) {
		t.Errorf("parallel delay = %v, want 9ns", got)
	}
	// Root (default max): the chain dominates.
	if got := float64(r.Delay); !almost(got, 50e-9) {
		t.Errorf("root delay = %v", got)
	}
	// Power still sums regardless of composition.
	want := float64(r.Find("stage").Power) + float64(r.Find("regs").Power)
	if float64(r.Power) != want {
		t.Error("power should sum under chain composition too")
	}
}

func TestComposeChainWithOwnModel(t *testing.T) {
	// A model row with chained children: own delay is the chain's head.
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	head := d.Root.MustAddChild("head", "cell")
	head.Delay = ComposeChain
	setParamValue(head, "bits", 10, "10")
	setParamValue(head.MustAddChild("tail", "cell"), "bits", 5, "5")
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(r.Find("head").Delay); !almost(got, 15e-9) {
		t.Errorf("head+tail = %v, want 15ns", got)
	}
}

func TestComposeJSONRoundTrip(t *testing.T) {
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	chain := d.Root.MustAddChild("stage", "")
	chain.Delay = ComposeChain
	setParamValue(chain.MustAddChild("a", "cell"), "bits", 3, "3")
	setParamValue(chain.MustAddChild("b", "cell"), "bits", 4, "4")
	blob, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"compose":"chain"`) {
		t.Errorf("compose mode not serialized: %s", blob)
	}
	d2, err := ParseDesign(blob, d.Registry)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(r2.Find("stage").Delay); !almost(got, 7e-9) {
		t.Errorf("round-tripped chain delay = %v", got)
	}
	// Unknown compose modes are rejected on load.
	bad := strings.Replace(string(blob), `"compose":"chain"`, `"compose":"bogus"`, 1)
	if _, err := ParseDesign([]byte(bad), d.Registry); err == nil {
		t.Error("bogus compose mode should fail")
	}
}
