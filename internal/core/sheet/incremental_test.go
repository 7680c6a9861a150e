package sheet

import (
	"sync/atomic"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// countingRegistry is testRegistry with an evaluation counter per row
// model, so tests can assert exactly which rows an incremental Play
// re-priced.
func countingRegistry(counts map[string]*atomic.Int64) *model.Registry {
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
			if c := counts["cell"]; c != nil {
				c.Add(1)
			}
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["act"]*p["bits"]*100e-15), p.Freq())
			e.Area = units.SquareMeters(p["bits"] * 1e-9)
			e.Delay = units.Seconds(p["bits"] * 1e-9)
			return e, nil
		},
	})
	return r
}

// incTestDesign builds a three-row sheet where each row's parameters
// feed from a distinct global, so single edits have small, known dirty
// cones: alpha reads wa, beta reads wb, gamma reads wc.
func incTestDesign(t *testing.T, counts map[string]*atomic.Int64) *Design {
	t.Helper()
	d := NewDesign("inc", countingRegistry(counts))
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	d.Root.SetGlobalValue("wa", 16, "16")
	d.Root.SetGlobalValue("wb", 8, "8")
	d.Root.SetGlobalValue("wc", 4, "4")
	for _, row := range []struct{ name, param string }{
		{"alpha", "wa"}, {"beta", "wb"}, {"gamma", "wc"},
	} {
		n := d.Root.MustAddChild(row.name, "cell")
		if err := n.SetParam("bits", row.param); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// playBothWays runs the incremental engine and the interpreter and
// demands bit-identical results (or identical error text): the
// engine-level statement of the repo-wide correctness contract.
func playBothWays(t *testing.T, d *Design) (*Result, PlayDelta) {
	t.Helper()
	r, delta, err := d.IncrementalEngine().Play()
	ri, errI := d.EvaluateInterpreted(nil)
	if (err == nil) != (errI == nil) {
		t.Fatalf("paths disagree on failure: incremental err=%v, interpreted err=%v", err, errI)
	}
	if err != nil {
		if err.Error() != errI.Error() {
			t.Fatalf("error text differs:\nincremental: %v\ninterpreted: %v", err, errI)
		}
		return nil, delta
	}
	sameResult(t, "", r, ri)
	return r, delta
}

func TestIncrementalDirtyCone(t *testing.T) {
	counts := map[string]*atomic.Int64{"cell": {}}
	d := incTestDesign(t, counts)
	e := d.IncrementalEngine()
	_, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full {
		t.Fatalf("first Play should be full, got %+v", delta)
	}
	if got := counts["cell"].Load(); got != 3 {
		t.Fatalf("first Play evaluated %d rows, want 3", got)
	}

	// Editing wa reaches only alpha (and the root aggregate).
	d.Root.SetGlobalValue("wa", 32, "32")
	r, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full {
		t.Fatalf("one-cell edit forced a full recompute: %+v", delta)
	}
	if got := counts["cell"].Load(); got != 4 {
		t.Fatalf("edit re-evaluated %d extra rows, want exactly 1 (alpha)", got-3)
	}
	if delta.DirtySteps >= delta.TotalSteps || delta.DirtySlots >= delta.TotalSlots {
		t.Errorf("dirty cone is not a strict subset: %+v", delta)
	}
	// The incremental result is bit-identical to a fresh evaluation.
	ri, errI := d.EvaluateInterpreted(nil)
	if errI != nil {
		t.Fatal(errI)
	}
	sameResult(t, "", r, ri)
}

func TestIncrementalZeroEditPlay(t *testing.T) {
	counts := map[string]*atomic.Int64{"cell": {}}
	d := incTestDesign(t, counts)
	e := d.IncrementalEngine()
	r1, _, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	base := counts["cell"].Load()
	// Play's "recompute now" bump must not cost anything when every
	// model is a pure function and nothing changed.
	d.Touch()
	r2, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full || delta.DirtySteps != 0 {
		t.Fatalf("editless Play dirtied steps: %+v", delta)
	}
	if r2 != r1 {
		t.Error("editless Play did not serve the retained result")
	}
	if got := counts["cell"].Load(); got != base {
		t.Errorf("editless Play re-evaluated models (%d -> %d)", base, got)
	}
}

func TestIncrementalStructuralEditGoesFull(t *testing.T) {
	d := incTestDesign(t, nil)
	playBothWays(t, d)
	n := d.Root.MustAddChild("delta_row", "cell")
	if err := n.SetParam("bits", "wa"); err != nil {
		t.Fatal(err)
	}
	_, delta := playBothWays(t, d)
	if !delta.Full {
		t.Fatalf("structural edit should force a full recompute, got %+v", delta)
	}
	// And removal too.
	d.Root.RemoveChild("delta_row")
	if _, delta = playBothWays(t, d); !delta.Full {
		t.Fatalf("row removal should force a full recompute, got %+v", delta)
	}
	// A root global nothing reads leaves the compiled layout unchanged,
	// but patch() cannot prove that, so adding and deleting one plays
	// full too.
	d.Root.SetGlobalValue("unread", 7, "7")
	if _, delta = playBothWays(t, d); !delta.Full {
		t.Fatalf("adding an unread global should force a full recompute, got %+v", delta)
	}
	d.Root.DeleteGlobal("unread")
	if _, delta = playBothWays(t, d); !delta.Full {
		t.Fatalf("deleting an unread global should force a full recompute, got %+v", delta)
	}
	// ...and the next rebind patches and plays incremental again.
	d.Root.SetGlobalValue("wb", 12, "12")
	if _, delta = playBothWays(t, d); delta.Full {
		t.Fatalf("rebind after a full Play should be incremental, got %+v", delta)
	}
}

func TestIncrementalErrorFallbackCanonicalText(t *testing.T) {
	d := incTestDesign(t, nil)
	playBothWays(t, d)
	// bits above the schema max: the run fails, and the engine must
	// reproduce the interpreter's canonical message.
	d.Root.SetGlobalValue("wa", 5000, "5000")
	if _, delta := playBothWays(t, d); !delta.Full {
		t.Fatalf("error fallback should report Full, got %+v", delta)
	}
	// Recovery after the error: state was dropped, next Play is full
	// and correct.
	d.Root.SetGlobalValue("wa", 16, "16")
	if _, delta := playBothWays(t, d); !delta.Full {
		t.Fatalf("post-error Play should be full, got %+v", delta)
	}
	// ...and incrementality resumes after that.
	d.Root.SetGlobalValue("wa", 24, "24")
	if _, delta := playBothWays(t, d); delta.Full {
		t.Fatalf("incrementality did not resume after error recovery: %+v", delta)
	}
}

// volatileCell wraps a counting model under its own name and declares
// it volatile, like a mounted remote proxy.
type volatileCell struct {
	model.Model
	evals atomic.Int64
}

func (v *volatileCell) Info() model.Info {
	info := v.Model.Info()
	info.Name = "remote.cell"
	return info
}
func (v *volatileCell) Volatile() bool { return true }
func (v *volatileCell) Evaluate(p model.Params) (*model.Estimate, error) {
	v.evals.Add(1)
	return v.Model.Evaluate(p)
}

func TestIncrementalVolatileModelAlwaysReplays(t *testing.T) {
	d := incTestDesign(t, nil)
	inner, _ := d.Registry.Lookup("cell")
	vc := &volatileCell{Model: inner}
	d.Registry.MustRegister(vc)
	n := d.Root.MustAddChild("rem", "remote.cell")
	if err := n.SetParam("bits", "2"); err != nil {
		t.Fatal(err)
	}
	e := d.IncrementalEngine()
	if _, _, err := e.Play(); err != nil {
		t.Fatal(err)
	}
	base := vc.evals.Load()
	d.Touch()
	_, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if got := vc.evals.Load(); got != base+1 {
		t.Errorf("volatile row evaluated %d times on editless Play, want 1", got-base)
	}
	if delta.Full || delta.DirtySteps == 0 {
		t.Errorf("volatile row should dirty an incremental Play: %+v", delta)
	}
}

func TestIncrementalRegistryEditDirtiesAllRows(t *testing.T) {
	counts := map[string]*atomic.Int64{"cell": {}}
	d := incTestDesign(t, counts)
	e := d.IncrementalEngine()
	if _, _, err := e.Play(); err != nil {
		t.Fatal(err)
	}
	base := counts["cell"].Load()
	// Re-registering any model bumps the registry generation: the
	// retained plan is a snapshot of the old library, so the next Play
	// compiles afresh and re-prices every model row.
	reg := countingRegistry(counts)
	m, _ := reg.Lookup("cell")
	d.Registry.MustRegister(m)
	_, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if got := counts["cell"].Load(); got != base+3 {
		t.Errorf("registry edit re-evaluated %d rows, want 3", got-base)
	}
	if !delta.Full {
		t.Errorf("registry edit should play full on a fresh plan: %+v", delta)
	}
}

// TestIncrementalMidPlayRegistration: a model whose evaluation
// registers a doubled version of itself.  The Play that ran it priced
// its own snapshot of the library; the next Play must see the new one,
// exactly as a fresh evaluation does.
func TestIncrementalMidPlayRegistration(t *testing.T) {
	reg := model.NewRegistry()
	info := model.Info{Name: "grow", Title: "self-replacing cell", Class: model.Computation, Doc: "d", Params: model.WithStd()}
	price := func(c float64, p model.Params) *model.Estimate {
		e := &model.Estimate{VDD: p.VDD()}
		e.AddCap("c", units.Farads(c), p.Freq())
		return e
	}
	doubled := &model.Func{Meta: info, Fn: func(p model.Params) (*model.Estimate, error) {
		return price(200e-15, p), nil
	}}
	reg.MustRegister(&model.Func{Meta: info, Fn: func(p model.Params) (*model.Estimate, error) {
		if err := reg.Register(doubled); err != nil {
			return nil, err
		}
		return price(100e-15, p), nil
	}})
	d := NewDesign("grow", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	d.Root.MustAddChild("a", "grow")
	e := d.IncrementalEngine()
	first, _, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	r, delta := playBothWays(t, d)
	if r.Power != 2*first.Power {
		t.Errorf("second Play = %v, want the doubled model's %v", r.Power, 2*first.Power)
	}
	if !delta.Full {
		t.Errorf("a Play after a registry move should run full: %+v", delta)
	}
}

func TestSharedSweeperMemo(t *testing.T) {
	d := planTestDesign(t)
	plan, err := d.PlanFor([]string{"vdd"})
	if err != nil {
		t.Fatal(err)
	}
	s1 := plan.sharedSweeper()
	s2 := plan.sharedSweeper()
	if s1 != s2 {
		t.Error("repeated sweeps did not share the hoisted baseline")
	}
	// A registry edit retires the plan, and with it the memo: PlanFor
	// compiles a new plan, whose baseline is hoisted afresh.
	m, _ := d.Registry.Lookup("cell")
	d.Registry.MustRegister(m)
	fresh, err := d.PlanFor([]string{"vdd"})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == plan {
		t.Fatal("registry edit did not retire the plan")
	}
	s3 := fresh.sharedSweeper()
	if s3 == s1 || fresh.sharedSweeper() != s3 {
		t.Error("the fresh plan should memoize its own baseline")
	}
	// Shared and fresh baselines price points as EvaluateTotals does.
	pts := []map[string]float64{{"vdd": 0.9}, {"vdd": 1.5}, {"vdd": 3.3}}
	checkBatchMatchesEval(t, d, s3.newBatchEval(len(pts)), pts)
	checkBatchMatchesEval(t, d, fresh.newSweeper().newBatchEval(len(pts)), pts)
}

func TestSharedSweeperVolatileNeverMemoizes(t *testing.T) {
	d := incTestDesign(t, nil)
	inner, _ := d.Registry.Lookup("cell")
	vc := &volatileCell{Model: inner}
	d.Registry.MustRegister(vc)
	n := d.Root.MustAddChild("rem", vc.Info().Name)
	if err := n.SetParam("bits", "2"); err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanFor([]string{"vdd"})
	if err != nil {
		t.Fatal(err)
	}
	s1 := plan.sharedSweeper()
	s2 := plan.sharedSweeper()
	if s1 == s2 {
		t.Error("volatile design shared a hoisted baseline across sweeps")
	}
}

// TestIncrementalParamEditOnRow covers the other edit surface: cell
// edits on a row parameter (not a global), the row_path|param form of
// the web Play.
func TestIncrementalParamEditOnRow(t *testing.T) {
	counts := map[string]*atomic.Int64{"cell": {}}
	d := incTestDesign(t, counts)
	e := d.IncrementalEngine()
	if _, _, err := e.Play(); err != nil {
		t.Fatal(err)
	}
	base := counts["cell"].Load()
	if err := d.Root.Child("beta").SetParam("bits", "wb*2"); err != nil {
		t.Fatal(err)
	}
	r, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full {
		t.Fatalf("param cell edit forced a full recompute: %+v", delta)
	}
	if got := counts["cell"].Load(); got != base+1 {
		t.Errorf("param edit re-evaluated %d rows, want 1", got-base)
	}
	ri, errI := d.EvaluateInterpreted(nil)
	if errI != nil {
		t.Fatal(errI)
	}
	sameResult(t, "", r, ri)
}
