package explore

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/units"
)

// sameBits demands two point slices be bit-identical — the chunked
// engine's contract against the scalar path, stronger than almost().
func sameBits(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Power) != math.Float64bits(want[i].Power) ||
			math.Float64bits(got[i].Area) != math.Float64bits(want[i].Area) ||
			math.Float64bits(got[i].Delay) != math.Float64bits(want[i].Delay) {
			t.Errorf("%s point %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestChunkedSweepBitIdenticalToScalar is the engine-level equivalence
// oracle: the columnar path must reproduce the scalar path bit for bit
// across chunk sizes, including the +Inf delay
// positions below the delay-scale threshold supply.
func TestChunkedSweepBitIdenticalToScalar(t *testing.T) {
	d := testDesign(t)
	values := Linspace(0.5, 3.3, 257)
	scalar, err := (&Runner{ChunkSize: 1}).Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Runner{
		{},               // default chunking
		{ChunkSize: 7},   // chunk not dividing the sweep
		{ChunkSize: 64},  // several chunks per sweep
		{ChunkSize: 512}, // chunk larger than the sweep
	} {
		got, err := cfg.Sweep(context.Background(), d, "vdd", values)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		sameBits(t, "vdd sweep", got, scalar)
	}

	v1, v2 := Linspace(1.0, 3.3, 9), Linspace(1e6, 8e6, 7)
	scalar2, err := (&Runner{ChunkSize: 1}).Sweep2D(context.Background(), d, "vdd", v1, "f", v2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := (&Runner{ChunkSize: 16}).Sweep2D(context.Background(), d, "vdd", v1, "f", v2)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "2-D sweep", got2, scalar2)
}

// exprErrDesign binds a row clock to a global that divides by zero at
// exactly vdd = 2, so a sweep crossing that point fails with a specific
// expression error at a specific index.
func exprErrDesign(t *testing.T) *sheet.Design {
	t.Helper()
	d := testDesign(t)
	if err := d.Root.SetGlobal("badf", "1e6/(vdd-2)"); err != nil {
		t.Fatal(err)
	}
	x := d.Root.Find("x")
	if x == nil {
		t.Fatal("no row x")
	}
	if err := x.SetParam("f", "badf"); err != nil {
		t.Fatal(err)
	}
	return d
}

// invariantErrDesign fails at every point without reading vdd: row x
// binds its own supply and a clock that divides by zero, so under a vdd
// sweep the failing root is sweep-invariant.
func invariantErrDesign(t *testing.T) *sheet.Design {
	t.Helper()
	d := testDesign(t)
	d.Root.SetGlobalValue("zero", 0, "0")
	x := d.Root.Find("x")
	for name, src := range map[string]string{"vdd": "1.5", "f": "1e6/zero"} {
		if err := x.SetParam(name, src); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestChunkedSweepErrorTextMatchesScalar pins the error contract: a
// failing chunk is re-run point by point, so the chunked engine reports
// exactly the scalar engine's error — same text, same (lowest-indexed)
// point — for both schema violations and expression errors.
func TestChunkedSweepErrorTextMatchesScalar(t *testing.T) {
	cases := []struct {
		name   string
		design *sheet.Design
		values []float64
	}{
		// Negative supplies violate the std schema from index 3 on.
		{"schema", testDesign(t), []float64{1.5, 1.6, 1.7, -1, -2, -3, -4, -5}},
		// vdd = 2.0 at index 2 divides by zero inside a global.
		{"expression", exprErrDesign(t), []float64{1.5, 1.75, 2.0, 2.25, 2.0, 2.75}},
		// Every point fails in the hoisted, sweep-invariant part.
		{"invariant", invariantErrDesign(t), []float64{1.5, 1.75, 2.0, 2.25}},
	}
	for _, c := range cases {
		pts, want := (&Runner{ChunkSize: 1}).Sweep(context.Background(), c.design, "vdd", c.values)
		if want == nil || pts != nil {
			t.Fatalf("%s: scalar sweep did not fail: %v", c.name, pts)
		}
		for _, cfg := range []Runner{
			{},
			{ChunkSize: 2},
			{ChunkSize: 3},
		} {
			_, err := cfg.Sweep(context.Background(), c.design, "vdd", c.values)
			if err == nil {
				t.Fatalf("%s %+v: no error", c.name, cfg)
			}
			if err.Error() != want.Error() {
				t.Errorf("%s %+v:\n  chunked: %v\n  scalar:  %v", c.name, cfg, err, want)
			}
		}
	}
}

// cycleDesign builds a sheet whose plan is rejected by the conservative
// static cycle check (the global's false self-reference) even though
// the lazy interpreter evaluates it fine: hoisting and therefore the
// columnar engine are unavailable, and every point takes the full
// EvaluateAt fallback.
func cycleDesign(t *testing.T) *sheet.Design {
	t.Helper()
	d := testDesign(t)
	if err := d.Root.SetGlobal("g", "vdd < 100 ? 3e6 : g"); err != nil {
		t.Fatal(err)
	}
	x := d.Root.Find("x")
	if err := x.SetParam("f", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PlanFor([]string{"vdd"}); err == nil {
		t.Fatal("fixture broken: plan compiled, fallback path not exercised")
	}
	return d
}

// TestSweepCacheAccountingOncePerPoint is the accounting regression
// test: a cached (or duplicated) point re-requested within one sweep
// must cost exactly one lookup — one hit or one miss — never a second
// lookup from the evaluation path.  Covers both the columnar chunk path
// and the scalar fallback (hoisting unavailable).
func TestSweepCacheAccountingOncePerPoint(t *testing.T) {
	for _, c := range []struct {
		name   string
		design *sheet.Design
	}{
		{"columnar", testDesign(t)},
		{"scalar-fallback", cycleDesign(t)},
	} {
		stats := cacheCounts()
		r := &Runner{ChunkSize: 2, Cache: NewCache(0)}
		// The same operating point twice within one chunk: two misses,
		// no phantom hit from the second evaluation-and-store.
		pts, err := r.Sweep(context.Background(), c.design, "vdd", []float64{2.5, 2.5})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(pts[0].Power) != math.Float64bits(pts[1].Power) {
			t.Errorf("%s: duplicate points disagree: %v vs %v", c.name, pts[0].Power, pts[1].Power)
		}
		if hits, misses := stats(); hits != 0 || misses != 2 {
			t.Errorf("%s cold: hits=%d misses=%d, want 0/2", c.name, hits, misses)
		}
		// Warm repeat: every request is one hit, nothing re-evaluated.
		if _, err := r.Sweep(context.Background(), c.design, "vdd", []float64{2.5, 2.5}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hits, misses := stats(); hits != 2 || misses != 2 {
			t.Errorf("%s warm: hits=%d misses=%d, want 2/2", c.name, hits, misses)
		}
	}
}

// TestChunkedSweepFallbackMatchesScalar: with hoisting unavailable the
// chunked engine still returns exactly what the scalar engine does.
func TestChunkedSweepFallbackMatchesScalar(t *testing.T) {
	d := cycleDesign(t)
	values := Linspace(1.0, 3.3, 11)
	want, err := (&Runner{ChunkSize: 1}).Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "fallback sweep", got, want)
}

// TestChunkedSweepWithRemoteishModel: a design mixing a kernelizable
// library model with a custom Func (no sweep form) still sweeps
// bit-identically — the batch executor prices the Func rows per point
// inside the chunk.
func TestChunkedMixedModelSweep(t *testing.T) {
	reg := model.NewRegistry()
	reg.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "odd", Title: "t", Class: model.Computation, Doc: "d",
			Params: model.WithStd(),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(33e-15*math.Sqrt(float64(p.VDD()))), p.Freq())
			e.Delay = units.Seconds(5e-9 * model.DelayScale(float64(p.VDD())))
			return e, nil
		},
	})
	d := sheet.NewDesign("mixed", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	d.Root.MustAddChild("a", "odd")
	d.Root.MustAddChild("b", "odd")
	values := Linspace(0.8, 3.3, 33)
	want, err := (&Runner{ChunkSize: 1}).Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Runner{ChunkSize: 8}).Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "mixed sweep", got, want)
}

// kernelCell is a model with a closed sweep form (the batch engine's
// kernel path) switching capPerBit farads per bit.
type kernelCell struct {
	model.Func
	capPerBit float64
}

func (c *kernelCell) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	sf.AddTerm(model.SweepTerm{Label: "c", Csw: p["bits"] * c.capPerBit, FMul: 1})
	return sf, true
}

func newKernelCell(capPerBit float64) *kernelCell {
	c := &kernelCell{capPerBit: capPerBit}
	c.Func = model.Func{
		Meta: model.Info{
			Name: "kcell", Title: "kernel cell", Class: model.Computation, Doc: "d",
			Params: model.WithStd(model.Param{Name: "bits", Default: 8, Min: 1, Max: 64, Integer: true}),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["bits"]*capPerBit), p.Freq())
			return e, nil
		},
	}
	return c
}

// TestRunnerSweepAfterKernelSwap: the kernel model is swapped for a
// doubled one while the sweep hoists its invariant baseline (an
// invariant row's model performs the swap, once).  The hoisted
// baseline and the columnar context priced through the retired
// library, so every point must come out as EvaluateTotals prices it
// against the new one.
func TestRunnerSweepAfterKernelSwap(t *testing.T) {
	reg := model.NewRegistry()
	reg.MustRegister(newKernelCell(100e-15))
	var armed atomic.Bool
	reg.MustRegister(&model.Func{
		Meta: model.Info{Name: "swap", Title: "library swapper", Class: model.Computation, Doc: "d", Params: model.WithStd()},
		Fn: func(p model.Params) (*model.Estimate, error) {
			if armed.CompareAndSwap(true, false) {
				if err := reg.Register(newKernelCell(200e-15)); err != nil {
					return nil, err
				}
			}
			return &model.Estimate{VDD: p.VDD()}, nil
		},
	})
	d := sheet.NewDesign("swap", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	// fixed and trigger bind their own supply, so a vdd sweep leaves
	// them in the invariant baseline; swept follows the sweep.
	for _, row := range []struct{ name, model string }{{"fixed", "kcell"}, {"trigger", "swap"}} {
		n := d.Root.MustAddChild(row.name, row.model)
		if err := n.SetParam("vdd", "1.2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Root.MustAddChild("swept", "kcell").SetParam("bits", "16"); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	got, err := (&Runner{ChunkSize: 8}).Sweep(context.Background(), d, "vdd", Linspace(1.0, 3.3, 16))
	if err != nil {
		t.Fatal(err)
	}
	if armed.Load() {
		t.Fatal("the swap never ran")
	}
	for i, p := range got {
		pw, area, delay, err := d.EvaluateTotals(p.Vars)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(p.Power) != math.Float64bits(pw) ||
			math.Float64bits(p.Area) != math.Float64bits(area) ||
			math.Float64bits(p.Delay) != math.Float64bits(delay) {
			t.Errorf("point %d %v: sweep %v/%v/%v, EvaluateTotals %v/%v/%v",
				i, p.Vars, p.Power, p.Area, p.Delay, pw, area, delay)
		}
	}
}

// spareDesign mixes a kernel row (columnar sweep form) with a Func row
// priced per point inside the chunk, so a sweep exercises both halves
// of the BatchEval a plan keeps as its spare.
func spareDesign(t *testing.T) *sheet.Design {
	t.Helper()
	d := testDesign(t)
	d.Registry.MustRegister(newKernelCell(100e-15))
	if err := d.Root.MustAddChild("k", "kcell").SetParam("bits", "16"); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConcurrentSweepsShareSpare: goroutines sweeping one design share
// its plan and hand its spare BatchEval back and forth, at sweep
// lengths that force both reuse and rebuilds.  Every column entry must
// be bit-identical to EvaluateTotals at that point, and every point
// must have been priced columnar.
func TestConcurrentSweepsShareSpare(t *testing.T) {
	d := spareDesign(t)
	columnar := exploreBatchPoints.With("columnar")
	before := columnar.Value()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	var points atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				values := Linspace(0.9+0.1*float64(g), 3.3, 8+5*((g+i)%4))
				cols, err := SweepColumns(context.Background(), d, "vdd", values)
				if err != nil {
					errs <- err
					return
				}
				points.Add(int64(len(values)))
				for j, v := range values {
					pw, area, delay, err := d.EvaluateTotals(map[string]float64{"vdd": v})
					if err != nil {
						errs <- err
						return
					}
					if math.Float64bits(cols.Power[j]) != math.Float64bits(pw) ||
						math.Float64bits(cols.Area[j]) != math.Float64bits(area) ||
						math.Float64bits(cols.Delay[j]) != math.Float64bits(delay) {
						errs <- fmt.Errorf("goroutine %d vdd=%g: columns %v/%v/%v, EvaluateTotals %v/%v/%v",
							g, v, cols.Power[j], cols.Area[j], cols.Delay[j], pw, area, delay)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := columnar.Value() - before; got < float64(points.Load()) {
		t.Errorf("%v of %d points priced columnar", got, points.Load())
	}
}

// TestSweepAllocsPerSweepNotPerPoint pins the column core's cost to the
// sweep: a repeated sweep of an unchanged plan reuses the plan's spare
// BatchEval, so it allocates as often at 200 steps as at 20, and only
// its result and argument columns (3 at the time of writing; a new
// BatchEval alone costs a column per touched slot).
func TestSweepAllocsPerSweepNotPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// Kernel rows only: a Func row allocates its Estimate per point by
	// design.
	reg := model.NewRegistry()
	reg.MustRegister(newKernelCell(100e-15))
	d := sheet.NewDesign("kernels", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	for _, name := range []string{"a", "b"} {
		d.Root.MustAddChild(name, "kcell")
	}
	allocs := func(steps int) float64 {
		values := Linspace(1.0, 3.3, steps)
		var runErr error
		n := testing.AllocsPerRun(20, func() {
			if _, err := SweepColumns(context.Background(), d, "vdd", values); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return n
	}
	a20, a200 := allocs(20), allocs(200)
	t.Logf("%v allocs at 20 steps, %v at 200", a20, a200)
	if a20 != a200 || a200 > 4 {
		t.Errorf("a repeated sweep allocates %v times at 20 steps and %v at 200, budget 4", a20, a200)
	}
}
