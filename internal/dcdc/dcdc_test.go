package dcdc

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

func TestDissipationEQ19(t *testing.T) {
	// 80% efficient converter feeding 1 W dissipates 0.25 W.
	d, err := Dissipation(1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(float64(d), 0.25) {
		t.Errorf("Pdiss = %v, want 0.25", d)
	}
	// Ideal converter dissipates nothing.
	d, err = Dissipation(1, 1)
	if err != nil || d != 0 {
		t.Errorf("ideal converter: %v, %v", d, err)
	}
	// Zero load dissipates nothing (first-order model).
	d, err = Dissipation(0, 0.8)
	if err != nil || d != 0 {
		t.Errorf("zero load: %v, %v", d, err)
	}
	// Errors.
	for _, eta := range []float64{0, -0.5, 1.5} {
		if _, err := Dissipation(1, eta); err == nil {
			t.Errorf("eta=%v should fail", eta)
		}
	}
	if _, err := Dissipation(-1, 0.8); err == nil {
		t.Error("negative load should fail")
	}
}

func TestInputPowerEQ18(t *testing.T) {
	// EQ 18 identity: η = Pload / Pin, where Pin = Pload + Pdiss.
	diss, err := Dissipation(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if pin := 2 + float64(diss); !almost(2/pin, 0.8) {
		t.Errorf("η recovered = %v, want 0.8", 2/pin)
	}
}

// Property: EQ 18 and EQ 19 agree for any valid load and efficiency.
func TestQuickEfficiencyIdentity(t *testing.T) {
	f := func(rawP, rawE uint16) bool {
		pload := units.Watts(float64(rawP) / 65535 * 100)
		eta := 0.05 + float64(rawE)/65535*0.95
		if eta > 1 {
			eta = 1
		}
		diss, err := Dissipation(pload, eta)
		if err != nil {
			return false
		}
		pin := float64(pload) + float64(diss)
		if pin == 0 {
			return pload == 0
		}
		return almost(float64(pload)/pin, eta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConverterModel(t *testing.T) {
	c := &Converter{Name: "maxim.buck", DefaultEta: 0.8}
	e, err := model.Evaluate(c, model.Params{"pload": 1.273, "vdd": 6})
	if err != nil {
		t.Fatal(err)
	}
	// Only the loss is reported; the load is its own row.
	want := 1.273 * 0.25
	if got := float64(e.Power()); !almost(got, want) {
		t.Errorf("converter row power = %v, want %v", got, want)
	}
	if float64(e.DynamicPower()) != 0 {
		t.Error("converter model is a static draw")
	}
	// Bad efficiency rejected through validation bounds.
	if _, err := model.Evaluate(c, model.Params{"eta": 0}); err == nil {
		t.Error("eta=0 should fail validation")
	}
	// Zero supply still evaluates (no static term representable).
	e0, err := model.Evaluate(c, model.Params{"pload": 1, "vdd": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if float64(e0.Power()) <= 0 {
		t.Error("loss should be positive at positive supply")
	}
}

func TestConverterIntermodelShape(t *testing.T) {
	// Doubling the fed modules' power doubles the converter loss —
	// the inter-model interaction the sheet relies on.
	c := &Converter{Name: "x", DefaultEta: 0.8}
	e1, _ := model.Evaluate(c, model.Params{"pload": 1, "vdd": 6})
	e2, _ := model.Evaluate(c, model.Params{"pload": 2, "vdd": 6})
	if !almost(2*float64(e1.Power()), float64(e2.Power())) {
		t.Error("loss should be linear in load")
	}
}
