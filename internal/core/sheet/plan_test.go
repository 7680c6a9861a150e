package sheet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// sameResult asserts two result trees are exactly equal — bit-identical
// floats, same resolved parameters, same shape.  This is the compiled
// path's correctness contract against the interpreter.
func sameResult(t *testing.T, path string, a, b *Result) {
	t.Helper()
	if a.Node != b.Node {
		t.Fatalf("%s: node mismatch: %v vs %v", path, a.Node, b.Node)
	}
	if a.Power != b.Power || a.DynamicPower != b.DynamicPower || a.StaticPower != b.StaticPower {
		t.Errorf("%s: power %v/%v/%v vs %v/%v/%v", path,
			a.Power, a.DynamicPower, a.StaticPower, b.Power, b.DynamicPower, b.StaticPower)
	}
	if a.Area != b.Area || a.Delay != b.Delay || a.EnergyPerOp != b.EnergyPerOp {
		t.Errorf("%s: area/delay/epo %v/%v/%v vs %v/%v/%v", path,
			a.Area, a.Delay, a.EnergyPerOp, b.Area, b.Delay, b.EnergyPerOp)
	}
	if len(a.Params) != len(b.Params) {
		t.Errorf("%s: params %v vs %v", path, a.Params, b.Params)
	} else {
		for k, v := range a.Params {
			if bv, ok := b.Params[k]; !ok || bv != v {
				t.Errorf("%s: param %q %v vs %v", path, k, v, bv)
			}
		}
	}
	if (a.Estimate == nil) != (b.Estimate == nil) {
		t.Errorf("%s: estimate presence %v vs %v", path, a.Estimate != nil, b.Estimate != nil)
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: %d children vs %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		sameResult(t, path+"/"+a.Children[i].Node.Name, a.Children[i], b.Children[i])
	}
}

// bothWays evaluates a design through the compiled plan and through the
// interpreter and demands identical trees (or identical error text).
func bothWays(t *testing.T, d *Design, overrides map[string]float64) *Result {
	t.Helper()
	// Confirm the compiled path is actually exercised, not silently
	// falling back.
	if _, err := d.PlanFor(overrideNames(overrides)); err != nil {
		t.Fatalf("plan does not compile: %v", err)
	}
	rc, errC := d.EvaluateAt(overrides)
	ri, errI := d.EvaluateInterpreted(overrides)
	if (errC == nil) != (errI == nil) {
		t.Fatalf("paths disagree on failure: compiled err=%v, interpreted err=%v", errC, errI)
	}
	if errC != nil {
		if errC.Error() != errI.Error() {
			t.Fatalf("error text differs:\ncompiled:    %v\ninterpreted: %v", errC, errI)
		}
		return nil
	}
	sameResult(t, "", rc, ri)
	return rc
}

// planTestDesign builds a sheet covering the features the compiler must
// reproduce: derived globals, scope shadowing, std inheritance, chain
// composition, inter-row power()/delay() and a converter row.
func planTestDesign(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("plan", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	if err := d.Root.SetGlobal("width", "8*2"); err != nil {
		t.Fatal(err)
	}
	a := d.Root.MustAddChild("alpha", "cell")
	if err := a.SetParam("bits", "width"); err != nil {
		t.Fatal(err)
	}
	sub := d.Root.MustAddChild("sub", "")
	sub.Delay = ComposeChain
	sub.SetGlobalValue("vdd", 1.2, "1.2") // shadowed supply for the subtree
	b := sub.MustAddChild("beta", "cell")
	if err := b.SetParam("bits", "width/2"); err != nil {
		t.Fatal(err)
	}
	c := sub.MustAddChild("gamma", "cell")
	if err := c.SetParam("act", "vdd > 1 ? 0.5 : 1.5"); err != nil {
		t.Fatal(err)
	}
	conv := d.Root.MustAddChild("conv", "loss")
	if err := conv.SetParam("pload", `power("sub") + power("alpha")`); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlanMatchesInterpreter(t *testing.T) {
	d := planTestDesign(t)
	bothWays(t, d, nil)
	bothWays(t, d, map[string]float64{"vdd": 2.0})
	bothWays(t, d, map[string]float64{"vdd": 0.9, "f": 5e6})
	// Overrides shadow every scope by plain name, including the
	// subtree-shadowed vdd and the derived width.
	r := bothWays(t, d, map[string]float64{"width": 4})
	if got := r.Find("alpha").Params["bits"]; got != 4 {
		t.Errorf("override not applied through plan: bits = %v", got)
	}
}

func TestPlanUnusedBrokenGlobalStaysLazy(t *testing.T) {
	// The interpreter only evaluates globals on reference; the plan must
	// preserve that by compiling only reachable bindings.
	d := planTestDesign(t)
	if err := d.Root.SetGlobal("broken", "no_such_var * 2"); err != nil {
		t.Fatal(err)
	}
	bothWays(t, d, nil)
}

// errTypedModel is a model failure callers tell apart with errors.Is.
var errTypedModel = errors.New("typed model failure")

func TestPlanErrorsMatchInterpreter(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Design
	}{
		{"row cycle", func(t *testing.T) *Design {
			d := NewDesign("cyc", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "loss")
			b := d.Root.MustAddChild("b", "loss")
			if err := a.SetParam("pload", `power("b")`); err != nil {
				t.Fatal(err)
			}
			if err := b.SetParam("pload", `power("a")`); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"global cycle", func(t *testing.T) *Design {
			d := NewDesign("cyc", testRegistry())
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			if err := d.Root.SetGlobal("vdd", "x+1"); err != nil {
				t.Fatal(err)
			}
			if err := d.Root.SetGlobal("x", "vdd*2"); err != nil {
				t.Fatal(err)
			}
			d.Root.MustAddChild("a", "cell")
			return d
		}},
		{"unknown model", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			d.Root.MustAddChild("a", "nosuchmodel")
			return d
		}},
		{"unknown parameter", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "cell")
			if err := a.SetParam("frobs", "3"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"range violation", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "cell")
			if err := a.SetParam("bits", "4096"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"undefined variable", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "cell")
			if err := a.SetParam("bits", "mystery"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"dangling power ref", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "loss")
			if err := a.SetParam("pload", `power("ghost")`); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"unknown model before param error", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "nosuchmodel")
			if err := a.SetParam("bits", "mystery"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"two range violations in schema order", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "cell")
			if err := a.SetParam("act", "5"); err != nil {
				t.Fatal(err)
			}
			if err := a.SetParam("bits", "4096"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"row error through power() from an earlier row", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			a := d.Root.MustAddChild("a", "loss")
			if err := a.SetParam("pload", `1 + power("b")`); err != nil {
				t.Fatal(err)
			}
			b := d.Root.MustAddChild("b", "cell")
			if err := b.SetParam("bits", "4096"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"failed global read by a global", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			d.Root.SetGlobalValue("zero", 0, "0")
			if err := d.Root.SetGlobal("g", "8/zero"); err != nil {
				t.Fatal(err)
			}
			if err := d.Root.SetGlobal("h", "g*2"); err != nil {
				t.Fatal(err)
			}
			a := d.Root.MustAddChild("a", "cell")
			if err := a.SetParam("bits", "h"); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"typed model error", func(t *testing.T) *Design {
			d := NewDesign("bad", testRegistry())
			d.Registry.MustRegister(&model.Func{
				Meta: model.Info{Name: "flaky", Title: "t", Class: model.Computation, Doc: "d", Params: model.WithStd()},
				Fn: func(model.Params) (*model.Estimate, error) {
					return nil, fmt.Errorf("remote: %w", errTypedModel)
				},
			})
			d.Root.SetGlobalValue("vdd", 1.5, "1.5")
			d.Root.SetGlobalValue("f", 1e6, "1e6")
			d.Root.MustAddChild("a", "flaky")
			return d
		}},
	}
	// Cases whose cause both paths must keep visible to errors.Is.
	causes := map[string]error{"typed model error": errTypedModel}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.build(t)
			before := planFallbacks.Value()
			_, errC := d.Evaluate()
			if _, perr := d.PlanFor(nil); perr == nil && planFallbacks.Value() != before {
				t.Fatal("a compiled plan fell back to the interpreter")
			}
			_, errI := d.EvaluateInterpreted(nil)
			if errC == nil || errI == nil {
				t.Fatalf("expected both paths to fail: compiled=%v interpreted=%v", errC, errI)
			}
			if errC.Error() != errI.Error() {
				t.Fatalf("error text differs:\ncompiled:    %v\ninterpreted: %v", errC, errI)
			}
			if is := causes[tc.name]; is != nil && (!errors.Is(errC, is) || !errors.Is(errI, is)) {
				t.Fatalf("cause lost: compiled %v, interpreted %v", errC, errI)
			}
		})
	}
}

func TestPlanCacheReuseAndInvalidation(t *testing.T) {
	d := planTestDesign(t)
	p1, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("unchanged design should reuse its cached plan")
	}
	// Distinct override-name sets compile distinct plans.
	pv, err := d.PlanFor([]string{"vdd"})
	if err != nil {
		t.Fatal(err)
	}
	if pv == p1 {
		t.Fatal("override set must key the plan cache")
	}
	// Any edit invalidates: a rebound cell...
	if err := d.Root.Find("alpha").SetParam("bits", "width+2"); err != nil {
		t.Fatal(err)
	}
	p3, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("SetParam must invalidate the plan cache")
	}
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Find("alpha").Params["bits"]; got != 18 {
		t.Errorf("stale plan: bits = %v, want 18", got)
	}
	// ...a structural edit...
	d.Root.MustAddChild("extra", "cell")
	p4, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p3 {
		t.Fatal("AddChild must invalidate the plan cache")
	}
	// ...and a global edit.
	d.Root.SetGlobalValue("width", 10, "10")
	p5, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p5 == p4 {
		t.Fatal("SetGlobalValue must invalidate the plan cache")
	}
}

func TestPlanPicksUpReRegisteredModel(t *testing.T) {
	d := NewDesign("regen", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	d.Root.MustAddChild("a", "cell")
	r1, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Re-register "cell" with doubled switched capacitance; the plan is
	// unchanged but its per-row model cache must refresh (registry
	// generation), exactly as the interpreter would.
	d.Registry.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "cell", Title: "test cell v2", Class: model.Computation, Doc: "d",
			Params: model.WithStd(
				model.Param{Name: "bits", Default: 8, Min: 1, Max: 1024, Integer: true},
				model.Param{Name: "act", Default: 1, Min: 0, Max: 2},
			),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["act"]*p["bits"]*200e-15), p.Freq())
			return e, nil
		},
	})
	r2, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if float64(r2.Power) != 2*float64(r1.Power) {
		t.Errorf("re-registered model not picked up: %v then %v", r1.Power, r2.Power)
	}
	sameResult(t, "", r2, mustInterp(t, d))
}

// scaledCell is testRegistry's "cell" with capPerBit farads switched
// per bit, for tests that swap the library under a design.
func scaledCell(capPerBit float64) model.Model {
	return &model.Func{
		Meta: model.Info{
			Name: "cell", Title: "scaled test cell", Class: model.Computation, Doc: "d",
			Params: model.WithStd(
				model.Param{Name: "bits", Default: 8, Min: 1, Max: 1024, Integer: true},
				model.Param{Name: "act", Default: 1, Min: 0, Max: 2},
			),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["act"]*p["bits"]*capPerBit), p.Freq())
			return e, nil
		},
	}
}

// TestPlanForKeysOnRegistryGeneration: a plan is a snapshot of one
// registry generation.  PlanFor hands out the same plan while both the
// design and the registry hold still and a new one after a Register;
// the plan compiled before the swap keeps pricing the old model.
func TestPlanForKeysOnRegistryGeneration(t *testing.T) {
	d := planTestDesign(t)
	d.Registry.MustRegister(scaledCell(100e-15))
	p1, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := d.PlanFor(nil); p2 != p1 {
		t.Fatal("unchanged design and registry should reuse the cached plan")
	}
	_, before, _, _, err := p1.evalAt(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	d.Registry.MustRegister(scaledCell(200e-15))
	p3, err := d.PlanFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("Register must retire the cached plan")
	}
	if p4, _ := d.PlanFor(nil); p4 != p3 {
		t.Fatal("the recompiled plan should be cached in turn")
	}
	_, stale, _, _, err := p1.evalAt(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if stale != before {
		t.Errorf("old plan re-priced after the swap: %v, then %v", before, stale)
	}
	_, fresh, _, _, err := p3.evalAt(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(mustInterp(t, d).Power); fresh != want || fresh == before {
		t.Errorf("new plan prices %v, interpreter %v (old model %v)", fresh, want, before)
	}
}

func mustInterp(t *testing.T, d *Design) *Result {
	t.Helper()
	r, err := d.EvaluateInterpreted(nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSweeperMatchesEvaluateAt(t *testing.T) {
	d := planTestDesign(t)
	plan, err := d.PlanFor([]string{"vdd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.variantSteps) >= len(plan.steps) {
		t.Fatalf("hoisting found no invariant work: %d of %d steps variant",
			len(plan.variantSteps), len(plan.steps))
	}
	var pts []map[string]float64
	for _, vdd := range []float64{0.8, 1.0, 1.5, 2.0, 3.3} {
		pts = append(pts, map[string]float64{"vdd": vdd})
	}
	n := len(pts)
	power, area, delay := make([]float64, n), make([]float64, n), make([]float64, n)
	bev := plan.newSweeper().newBatchEval(n)
	if err := bev.Run(context.Background(), pointColumns(bev, pts), power, area, delay); err != nil {
		t.Fatal(err)
	}
	for i, ov := range pts {
		full, err := d.EvaluateAt(ov)
		if err != nil {
			t.Fatalf("%v: %v", ov, err)
		}
		if math.Float64bits(power[i]) != math.Float64bits(float64(full.Power)) ||
			math.Float64bits(area[i]) != math.Float64bits(float64(full.Area)) ||
			math.Float64bits(delay[i]) != math.Float64bits(float64(full.Delay)) {
			t.Errorf("%v: hoisted %v/%v/%v, full %v/%v/%v",
				ov, power[i], area[i], delay[i], full.Power, full.Area, full.Delay)
		}
	}
}

func TestPlanConcurrentSharedUse(t *testing.T) {
	// Many goroutines share one design, its cached plan and one hoisted
	// baseline, each through its own BatchEval: the mix concurrent
	// sweeps produce under -race.
	d := planTestDesign(t)
	want, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanFor([]string{"vdd"})
	if err != nil {
		t.Fatal(err)
	}
	sw := plan.newSweeper()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bev := sw.newBatchEval(1)
			var p1, a1, d1 [1]float64
			for i := 0; i < 50; i++ {
				r, err := d.Evaluate()
				if err != nil {
					errs <- err
					return
				}
				if r.Power != want.Power {
					errs <- fmt.Errorf("goroutine %d: power %v, want %v", g, r.Power, want.Power)
					return
				}
				vdd := 1.0 + float64((g+i)%10)*0.2
				ov := map[string]float64{"vdd": vdd}
				if err := bev.Run(context.Background(), [][]float64{{vdd}}, p1[:], a1[:], d1[:]); err != nil {
					errs <- err
					return
				}
				power, area, delay, err := d.EvaluateTotals(ov)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(p1[0]) != math.Float64bits(power) ||
					math.Float64bits(a1[0]) != math.Float64bits(area) ||
					math.Float64bits(d1[0]) != math.Float64bits(delay) {
					errs <- fmt.Errorf("goroutine %d: hoisted %v/%v/%v, full %v/%v/%v at vdd=%g",
						g, p1[0], a1[0], d1[0], power, area, delay, vdd)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEvaluateTotalsMatchesEvaluate(t *testing.T) {
	d := planTestDesign(t)
	for _, ov := range []map[string]float64{nil, {"vdd": 2.2}, {"width": 6, "f": 3e6}} {
		power, area, delay, err := d.EvaluateTotals(ov)
		if err != nil {
			t.Fatal(err)
		}
		full, err := d.EvaluateAt(ov)
		if err != nil {
			t.Fatal(err)
		}
		if power != float64(full.Power) || area != float64(full.Area) || delay != float64(full.Delay) {
			t.Errorf("totals %v/%v/%v, full %v/%v/%v at %v",
				power, area, delay, full.Power, full.Area, full.Delay, ov)
		}
	}
}

// schemaCell is an equation-like model named name whose power is the
// sum of its extra parameters' values, each bounded to [0, 10].
func schemaCell(name string, extra ...string) *model.Func {
	params := make([]model.Param, 0, len(extra))
	for _, p := range extra {
		params = append(params, model.Param{Name: p, Default: 1, Min: 0, Max: 10})
	}
	return &model.Func{
		Meta: model.Info{Name: name, Class: model.Computation, Params: model.WithStd(params...)},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			for _, name := range extra {
				e.AddStatic(name, units.Amps(p[name]))
			}
			return e, nil
		},
	}
}

// TestRegistryOwnsSchemaPlanRedefine: a plan validates a row against
// the schema the registry built when the model was last registered.
// Redefining the model with an added parameter lets the next plan
// accept a binding of it; dropping the parameter again makes the plan
// and the interpreter reject that binding in model.Evaluate's words.
func TestRegistryOwnsSchemaPlanRedefine(t *testing.T) {
	reg := testRegistry()
	reg.MustRegister(schemaCell("eq", "a"))
	d := NewDesign("redefine", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	setParamValue(d.Root.MustAddChild("row", "eq"), "b", 3, "3")
	if _, err := d.Evaluate(); err == nil {
		t.Fatal("binding b before the model declares it should fail")
	}

	reg.MustRegister(schemaCell("eq", "a", "b"))
	r, err := d.Evaluate()
	if err != nil {
		t.Fatalf("binding the added parameter: %v", err)
	}
	if want := units.Watts((1 + 3) * 1.5); r.Power != want {
		t.Errorf("power %v after the redefinition, want %v", r.Power, want)
	}

	dropped := schemaCell("eq", "a")
	reg.MustRegister(dropped)
	_, want := model.Evaluate(dropped, model.Params{"b": 3, "vdd": 1.5, "f": 2e6})
	if want == nil {
		t.Fatal("model.Evaluate accepted the dropped parameter")
	}
	_, planErr := d.Evaluate()
	_, interpErr := d.EvaluateInterpreted(nil)
	for engine, err := range map[string]error{"plan": planErr, "interpreter": interpErr} {
		var ee *EvalError
		if !errors.As(err, &ee) || ee.Msg != want.Error() {
			t.Errorf("%s after dropping b: %v, want message %q", engine, err, want)
		}
	}
}
