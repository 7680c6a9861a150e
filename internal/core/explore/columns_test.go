package explore_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/vqsim"
)

// seededRanges are the benchmark's sweep ranges over the paper's
// seeded designs: a variable of each design and the interval swept.
var seededRanges = []struct {
	design, variable string
	lo, hi           float64
}{
	{"Luminance_1", "vdd", 1.0, 3.3},
	{"Luminance_1", "f", 0.5e6, 8e6},
	{"Luminance_2", "vdd", 1.0, 3.3},
	{"Luminance_2", "f", 0.5e6, 8e6},
	{"InfoPad", "vdd1", 1.0, 3.3},
	{"InfoPad", "vdd3", 3.3, 6},
	{"InfoPad", "fclk", 5e6, 40e6},
}

// seededDesigns builds the three seeded designs over one standard
// library.
func seededDesigns(t *testing.T) map[string]*sheet.Design {
	t.Helper()
	reg := library.Standard()
	out := map[string]*sheet.Design{}
	for _, build := range []func(*model.Registry) (*sheet.Design, error){vqsim.Luminance1, vqsim.Luminance2, infopad.Build} {
		d, err := build(reg)
		if err != nil {
			t.Fatal(err)
		}
		out[d.Name] = d
	}
	return out
}

// scalarSweep prices every value through EvaluateTotals, stopping at
// the first failing one with the error a sweep reports for it: the
// override label, then EvaluateTotals' own text.
func scalarSweep(d *sheet.Design, name string, values []float64) (explore.Columns, error) {
	var c explore.Columns
	for _, v := range values {
		pw, area, delay, err := d.EvaluateTotals(map[string]float64{name: v})
		if err != nil {
			return explore.Columns{}, fmt.Errorf("explore: %s=%g: %w", name, v, err)
		}
		c.Power, c.Area, c.Delay = append(c.Power, pw), append(c.Area, area), append(c.Delay, delay)
	}
	return c, nil
}

// sameColumns demands bit identity, entry by entry.
func sameColumns(t *testing.T, label string, got, want explore.Columns) {
	t.Helper()
	if len(got.Power) != len(want.Power) || len(got.Area) != len(want.Area) || len(got.Delay) != len(want.Delay) {
		t.Fatalf("%s: %d points, want %d", label, len(got.Power), len(want.Power))
	}
	for i := range want.Power {
		if math.Float64bits(got.Power[i]) != math.Float64bits(want.Power[i]) ||
			math.Float64bits(got.Area[i]) != math.Float64bits(want.Area[i]) ||
			math.Float64bits(got.Delay[i]) != math.Float64bits(want.Delay[i]) {
			t.Fatalf("%s point %d: %v/%v/%v, EvaluateTotals %v/%v/%v", label, i,
				got.Power[i], got.Area[i], got.Delay[i], want.Power[i], want.Area[i], want.Delay[i])
		}
	}
}

// checkSweep sweeps values through SweepColumns and a chunked Runner
// and holds both to the scalar oracle: bit-identical columns on
// success, the oracle's error text byte for byte on failure.  Runner
// Sweep's points must carry the same totals and their override.  It
// reports whether the sweep failed.
func checkSweep(t *testing.T, label string, d *sheet.Design, name string, values []float64) bool {
	t.Helper()
	want, wantErr := scalarSweep(d, name, values)
	got, err := explore.SweepColumns(context.Background(), d, name, values)
	pts, ptsErr := (&explore.Runner{ChunkSize: 16}).Sweep(context.Background(), d, name, values)
	if wantErr != nil {
		for _, e := range []error{err, ptsErr} {
			if e == nil || e.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, want %q", label, e, wantErr)
			}
		}
		t.Logf("%s: %v", label, wantErr)
		return true
	}
	if err != nil || ptsErr != nil {
		t.Fatalf("%s: %v / %v", label, err, ptsErr)
	}
	sameColumns(t, label, got, want)
	var fromPts explore.Columns
	for i, p := range pts {
		if p.Vars[name] != values[i] || len(p.Vars) != 1 {
			t.Fatalf("%s point %d: Vars %v, want %s=%g", label, i, p.Vars, name, values[i])
		}
		fromPts.Power, fromPts.Area, fromPts.Delay = append(fromPts.Power, p.Power), append(fromPts.Area, p.Area), append(fromPts.Delay, p.Delay)
	}
	sameColumns(t, label+" Runner.Sweep", fromPts, want)
	return false
}

// TestSweepColumnsMatchEvaluateTotals: over every seeded sweep range,
// the column core prices each point as EvaluateTotals does, bit for
// bit; so does a repeat, which runs on the plan's spare BatchEval.
func TestSweepColumnsMatchEvaluateTotals(t *testing.T) {
	designs := seededDesigns(t)
	for _, r := range seededRanges {
		label := r.design + " " + r.variable
		values := explore.Linspace(r.lo, r.hi, 200)
		for range 2 {
			if checkSweep(t, label, designs[r.design], r.variable, values) {
				t.Fatalf("%s: the range fails to evaluate", label)
			}
		}
	}
}

// TestSweepColumnsScalarFallback covers the chunks the columnar pass
// cannot price.  Each seeded range run from its top down through zero
// fails model validation part way: the chunks before it price
// columnar, the failing one falls back to EvaluateTotals, and the
// error is the lowest-indexed failing point's, worded as before.  A
// sheet whose plan does not compile (a static cycle) prices every
// chunk per point, bit-identically.
func TestSweepColumnsScalarFallback(t *testing.T) {
	designs := seededDesigns(t)
	failed := 0
	for _, r := range seededRanges {
		values := explore.Linspace(r.hi, -r.hi, 200)
		if checkSweep(t, r.design+" "+r.variable+" through zero", designs[r.design], r.variable, values) {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no range failed: the fallback was not exercised")
	}

	d := designs["Luminance_2"]
	if err := d.Root.SetGlobal("g", "vdd < 100 ? 3e6 : g"); err != nil {
		t.Fatal(err)
	}
	if err := d.Root.MustAddChild("cyclic", library.Register).SetParam("f", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PlanFor([]string{"vdd"}); err == nil {
		t.Fatal("fixture broken: the plan compiled")
	}
	if checkSweep(t, "static cycle", d, "vdd", explore.Linspace(1.0, 3.3, 200)) {
		t.Fatal("static cycle: the sweep failed")
	}
}
