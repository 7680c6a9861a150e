package sheet

import (
	"context"
	"math"
	"strings"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// sweepableCell is a test model with a closed sweep form whose
// Evaluate is written out by hand beside it, computing the same
// expressions, so the kernel path must be bit-identical to the scalar
// one.
type sweepableCell struct {
	model.Func
	capPerBit float64
}

func (c *sweepableCell) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	sf.AddTerm(model.SweepTerm{Label: "c", Csw: p["act"] * p["bits"] * c.capPerBit, FMul: 1})
	sf.Area = p["bits"] * 1e-9
	sf.Delay0 = p["bits"] * 1e-9
	return sf, true
}

// newSweepableCell builds a "kcell" instance whose Evaluate and
// SweepForm share one capacitance coefficient.
func newSweepableCell(title string, capPerBit float64) *sweepableCell {
	c := &sweepableCell{capPerBit: capPerBit}
	c.Func = model.Func{
		Meta: model.Info{
			Name: "kcell", Title: title, Class: model.Computation, Doc: "d",
			Params: model.WithStd(
				model.Param{Name: "bits", Default: 8, Min: 1, Max: 1024, Integer: true},
				model.Param{Name: "act", Default: 1, Min: 0, Max: 2},
			),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			bits := p["bits"]
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["act"]*bits*capPerBit), p.Freq())
			e.Area = units.SquareMeters(bits * 1e-9)
			e.Delay = units.Seconds(bits * 1e-9 * model.DelayScale(float64(p.VDD())))
			return e, nil
		},
	}
	return c
}

// batchTestRegistry extends the plan-test registry with "kcell", a
// model the batch executor can kernelize.
func batchTestRegistry() *model.Registry {
	r := testRegistry()
	r.MustRegister(newSweepableCell("kernel cell", 100e-15))
	return r
}

// batchTestDesign is a sheet that routes the columnar executor through
// every step kind at once: a batchable variant global (bExpr), a
// conditional parameter (bExprScalar feeding bModelScalar), kernel rows
// with swept and divided clocks (bKernel), a model without a sweep form
// (bModelScalar), a chain-composed subtree with a shadowed supply
// (bAgg), and a converter priced off power() slot reads.
func batchTestDesign(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("batch", batchTestRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	if err := d.Root.SetGlobal("fdiv", "f/16"); err != nil {
		t.Fatal(err)
	}
	k := d.Root.MustAddChild("kern", "kcell")
	if err := k.SetParam("bits", "16"); err != nil {
		t.Fatal(err)
	}
	kd := d.Root.MustAddChild("kerndiv", "kcell")
	if err := kd.SetParam("f", "fdiv"); err != nil {
		t.Fatal(err)
	}
	cond := d.Root.MustAddChild("cond", "kcell")
	// A variant non-operating-point parameter: the kernel gate must
	// refuse this row and price it per point.
	if err := cond.SetParam("act", "vdd > 1 ? 0.5 : 1.5"); err != nil {
		t.Fatal(err)
	}
	plain := d.Root.MustAddChild("plain", "cell")
	if err := plain.SetParam("bits", "24"); err != nil {
		t.Fatal(err)
	}
	sub := d.Root.MustAddChild("sub", "")
	sub.Delay = ComposeChain
	sub.SetGlobalValue("vdd", 1.2, "1.2")
	b := sub.MustAddChild("beta", "kcell")
	if err := b.SetParam("bits", "8"); err != nil {
		t.Fatal(err)
	}
	conv := d.Root.MustAddChild("conv", "loss")
	if err := conv.SetParam("pload", `power("sub") + power("kern")`); err != nil {
		t.Fatal(err)
	}
	return d
}

// newBatch compiles the design for the override names and returns a
// BatchEval over a freshly hoisted baseline.
func newBatch(t *testing.T, d *Design, names []string, capacity int) *BatchEval {
	t.Helper()
	plan, err := d.PlanFor(names)
	if err != nil {
		t.Fatal(err)
	}
	return plan.newSweeper().newBatchEval(capacity)
}

// pointColumns lays points out as the override columns Run takes, one
// per plan override name, in the plan's order.
func pointColumns(b *BatchEval, points []map[string]float64) [][]float64 {
	names := b.sw.plan.overrideNames
	cols := make([][]float64, len(names))
	for k, name := range names {
		cols[k] = make([]float64, len(points))
		for i, pt := range points {
			cols[k][i] = pt[name]
		}
	}
	return cols
}

// checkBatchMatchesEval runs one chunk through the BatchEval and every
// point through EvaluateTotals, demanding bit-identical totals.
func checkBatchMatchesEval(t *testing.T, d *Design, bev *BatchEval, points []map[string]float64) {
	t.Helper()
	n := len(points)
	pw, area, delay := make([]float64, n), make([]float64, n), make([]float64, n)
	if err := bev.Run(context.Background(), pointColumns(bev, points), pw, area, delay); err != nil {
		t.Fatalf("batch run: %v", err)
	}
	for i, ov := range points {
		wp, wa, wd, err := d.EvaluateTotals(ov)
		if err != nil {
			t.Fatalf("scalar at %v: %v", ov, err)
		}
		if math.Float64bits(pw[i]) != math.Float64bits(wp) ||
			math.Float64bits(area[i]) != math.Float64bits(wa) ||
			math.Float64bits(delay[i]) != math.Float64bits(wd) {
			t.Errorf("point %d %v: batch %v/%v/%v, scalar %v/%v/%v",
				i, ov, pw[i], area[i], delay[i], wp, wa, wd)
		}
	}
}

func TestBatchEvalMatchesEvaluateTotals(t *testing.T) {
	d := batchTestDesign(t)
	bev := newBatch(t, d, []string{"vdd"}, 64)
	var pts []map[string]float64
	// 0.6 and 0.7 sit at or below the delay-scale threshold voltage:
	// the +Inf delay positions must survive the columnar path too.
	for i := 0; i < 64; i++ {
		pts = append(pts, map[string]float64{"vdd": 0.6 + float64(i)*(3.3-0.6)/63})
	}
	checkBatchMatchesEval(t, d, bev, pts)
	// A second, smaller chunk through the same context: per-chunk
	// state (DelayScale memos, override columns) must reset cleanly.
	checkBatchMatchesEval(t, d, bev, pts[:7])
}

func TestBatchEvalFrequencySweep(t *testing.T) {
	d := batchTestDesign(t)
	// Constant vdd: the kernels take the precomputed DelayScale column.
	bev := newBatch(t, d, []string{"f"}, 32)
	var pts []map[string]float64
	for i := 0; i < 32; i++ {
		pts = append(pts, map[string]float64{"f": 1e6 * float64(1+i)})
	}
	checkBatchMatchesEval(t, d, bev, pts)
}

func TestBatchEvalTwoVariableSweep(t *testing.T) {
	d := batchTestDesign(t)
	bev := newBatch(t, d, []string{"f", "vdd"}, 64)
	var pts []map[string]float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			pts = append(pts, map[string]float64{
				"vdd": 0.9 + 0.3*float64(i), "f": 1e6 * float64(1+j),
			})
		}
	}
	checkBatchMatchesEval(t, d, bev, pts)
}

func TestBatchEvalErrors(t *testing.T) {
	d := batchTestDesign(t)
	bev := newBatch(t, d, []string{"vdd"}, 8)
	pw, area, delay := make([]float64, 8), make([]float64, 8), make([]float64, 8)
	ctx := context.Background()

	// Oversized chunk.
	big := make([]map[string]float64, 9)
	for i := range big {
		big[i] = map[string]float64{"vdd": 1.5}
	}
	if err := bev.Run(ctx, pointColumns(bev, big), make([]float64, 9), make([]float64, 9), make([]float64, 9)); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Fatalf("oversized chunk: got %v", err)
	}

	// A point missing the override the plan was compiled for.
	if err := bev.Run(ctx, nil, pw[:1], area[:1], delay[:1]); err == nil ||
		!strings.Contains(err.Error(), "missing override") {
		t.Fatalf("missing override: got %v", err)
	}

	// A failing point anywhere in the chunk fails the whole run: vdd=11
	// violates the std schema range (max 10 V), caught by the kernel
	// path's per-column validation.
	bad := []map[string]float64{{"vdd": 1.5}, {"vdd": 11}, {"vdd": 2}}
	if err := bev.Run(ctx, pointColumns(bev, bad[:3]), pw[:3], area[:3], delay[:3]); err == nil {
		t.Fatal("out-of-range vdd slipped through the columnar path")
	}

	// Cancellation surfaces as an error, not a partial chunk.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bev.Run(canceled, [][]float64{{1.5}}, pw[:1], area[:1], delay[:1]); err == nil {
		t.Fatal("canceled context not honored")
	}

	// Errors must not poison later runs: a clean chunk still works and
	// still matches the scalar path.
	checkBatchMatchesEval(t, d, bev, []map[string]float64{{"vdd": 1.1}, {"vdd": 2.2}})
}

func TestBatchEvalModelRegeneration(t *testing.T) {
	d := batchTestDesign(t)
	bev := newBatch(t, d, []string{"vdd"}, 4)
	pts := []map[string]float64{{"vdd": 1.0}, {"vdd": 2.0}}
	checkBatchMatchesEval(t, d, bev, pts)
	// Swap the kernel model for one with doubled capacitance: the
	// BatchEval was built over the old plan's snapshot, so its next Run
	// is an error (the caller's cue to re-price through EvaluateTotals),
	// and one over the recompiled plan matches the scalar path.
	d.Registry.MustRegister(newSweepableCell("kernel cell v2", 200e-15))
	pw, area, delay := make([]float64, 2), make([]float64, 2), make([]float64, 2)
	if err := bev.Run(context.Background(), pointColumns(bev, pts), pw, area, delay); err == nil {
		t.Fatal("Run on a plan from a retired registry generation succeeded")
	}
	checkBatchMatchesEval(t, d, newBatch(t, d, []string{"vdd"}, 4), pts)
}
