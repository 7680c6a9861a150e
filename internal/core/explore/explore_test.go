package explore

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/units"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// testDesign builds a one-row design whose cell has quadratic power and
// alpha-power-law delay in vdd — the canonical CMOS trade-off.
func testDesign(t *testing.T) *sheet.Design {
	t.Helper()
	reg := model.NewRegistry()
	reg.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "cell", Title: "t", Class: model.Computation, Doc: "d",
			Params: model.WithStd(),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", 100*units.PicoFarad, p.Freq())
			e.Delay = units.Seconds(20e-9 * model.DelayScale(float64(p.VDD())))
			e.Area = 1e-8
			return e, nil
		},
	})
	d := sheet.NewDesign("t", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	d.Root.MustAddChild("x", "cell")
	return d
}

func TestLinspace(t *testing.T) {
	got := Linspace(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Errorf("Linspace[%d] = %v", i, got[i])
		}
	}
	if Linspace(1, 3, 0) != nil {
		t.Error("n=0 should be nil")
	}
	if got := Linspace(2, 9, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("n=1: %v", got)
	}
}

// TestLinspaceFiniteEndpoints: finite endpoints give finite, monotone
// points from exactly lo — also when hi-lo overflows — and ranges that
// do not overflow keep lo + i*step bit for bit.
func TestLinspaceFiniteEndpoints(t *testing.T) {
	if got := Linspace(1e308, -1e308, 5); got[0] != 1e308 || got[2] != 0 || got[4] != -1e308 {
		t.Errorf("Linspace(1e308, -1e308, 5) = %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	huge := func() float64 { return (2*rng.Float64() - 1) * math.MaxFloat64 }
	ends := [][2]float64{
		{-math.MaxFloat64, math.MaxFloat64}, {math.MaxFloat64, -math.MaxFloat64},
		{1e308, -1e308}, {0, math.MaxFloat64}, {-math.MaxFloat64, 0},
		{2.7e307, math.MaxFloat64}, {math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64},
		{1, 3}, {0.1, 0.7}, {5, 5}, {-0.0, 0},
	}
	for i := 0; i < 2000; i++ {
		ends = append(ends, [2]float64{huge(), huge()}, [2]float64{huge() / 4, math.MaxFloat64})
	}
	for _, e := range ends {
		lo, hi := e[0], e[1]
		for _, n := range []int{2, 3, 7, 200} {
			got := Linspace(lo, hi, n)
			step := (hi - lo) / float64(n-1)
			overflow := math.IsInf(step, 0) || math.IsInf(lo+float64(n-1)*step, 0)
			if got[0] != lo || (overflow && got[n-1] != hi) {
				t.Fatalf("Linspace(%g, %g, %d) runs %g..%g", lo, hi, n, got[0], got[n-1])
			}
			for i, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Linspace(%g, %g, %d)[%d] = %g", lo, hi, n, i, v)
				}
				if i > 0 && (hi >= lo && v < got[i-1] || hi < lo && v > got[i-1]) {
					t.Fatalf("Linspace(%g, %g, %d) not monotone at %d: %g after %g", lo, hi, n, i, v, got[i-1])
				}
				if !overflow && v != lo+float64(i)*step {
					t.Fatalf("Linspace(%g, %g, %d)[%d] = %g, want lo + i*step = %g", lo, hi, n, i, v, lo+float64(i)*step)
				}
			}
		}
	}
}

func TestSweepQuadraticPower(t *testing.T) {
	d := testDesign(t)
	pts, err := Sweep(context.Background(), d, "vdd", []float64{1.5, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("pts = %v", pts)
	}
	if !almost(pts[1].Power, 4*pts[0].Power) {
		t.Errorf("power should be quadratic in vdd: %v", pts)
	}
	if !(pts[1].Delay < pts[0].Delay) {
		t.Error("delay should fall with supply")
	}
	if pts[0].Vars["vdd"] != 1.5 {
		t.Error("Vars should carry the overrides")
	}
	// Errors propagate with the point identified.
	if _, err := Sweep(context.Background(), d, "vdd", []float64{-1}); err == nil {
		t.Error("invalid supply should fail")
	}
}

func TestSweep2D(t *testing.T) {
	d := testDesign(t)
	pts, err := Sweep2D(context.Background(), d, "vdd", []float64{1.5, 3}, "f", []float64{1e6, 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("len = %d", len(pts))
	}
	// Row-major: pts[1] is vdd=1.5, f=2e6 — double the power of pts[0].
	if !almost(pts[1].Power, 2*pts[0].Power) {
		t.Errorf("frequency axis: %v vs %v", pts[1].Power, pts[0].Power)
	}
}

func TestPareto(t *testing.T) {
	pts := []Point{
		{Power: 1, Delay: 10},
		{Power: 2, Delay: 5},
		{Power: 3, Delay: 6}, // dominated by (2,5)
		{Power: 4, Delay: 1},
		{Power: 5, Delay: 1},  // dominated by (4,1)
		{Power: 1, Delay: 12}, // dominated by (1,10)
	}
	front := Pareto(pts)
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	if front[0].Power != 1 || front[1].Power != 2 || front[2].Power != 4 {
		t.Errorf("front order = %v", front)
	}
}

// dominatedOracle is the quadratic definition Front must match: p is
// dominated when another point is no worse in both power and delay and
// strictly better in one.
func dominatedOracle(points []Point, i int) bool {
	p := points[i]
	for j, q := range points {
		if i != j && q.Power <= p.Power && q.Delay <= p.Delay &&
			(q.Power < p.Power || q.Delay < p.Delay) {
			return true
		}
	}
	return false
}

// TestFrontMatchesOracle: the sort-and-scan mask equals the quadratic
// definition over random point sets drawn from a small value pool, so
// ties, duplicate points (a from == to sweep) and ±Inf/NaN/±0 totals
// all occur; Pareto keeps exactly the masked points, sorted.
func TestFrontMatchesOracle(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, 2, 2, 3, 5, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, 7}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		pts := make([]Point, rng.Intn(12))
		for i := range pts {
			pts[i] = Point{Power: pool[rng.Intn(len(pool))], Delay: pool[rng.Intn(len(pool))]}
			if i > 0 && rng.Intn(4) == 0 {
				pts[i] = pts[rng.Intn(i)] // an exact duplicate
			}
		}
		if trial%50 == 0 { // every point the same, as in a from == to sweep
			for i := range pts {
				pts[i] = Point{Power: 2, Delay: 3}
			}
		}
		power, delay := make([]float64, len(pts)), make([]float64, len(pts))
		for i, p := range pts {
			power[i], delay[i] = p.Power, p.Delay
		}
		mask := Front(power, delay)
		var want []Point
		for i := range pts {
			if mask[i] == dominatedOracle(pts, i) {
				t.Fatalf("points %v: Front[%d] = %v disagrees with the oracle", pts, i, mask[i])
			}
			if mask[i] {
				want = append(want, pts[i])
			}
		}
		got := Pareto(pts)
		if len(got) != len(want) {
			t.Fatalf("points %v: Pareto kept %d, mask %d", pts, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if byPowerDelay(got[i-1], got[i]) > 0 {
				t.Fatalf("points %v: Pareto out of order: %v", pts, got)
			}
		}
	}
}

// Property: the voltage sweep of a CMOS design is entirely
// non-dominated (lower V ⇒ less power but more delay), so Pareto keeps
// every point.
func TestQuickSweepIsFrontier(t *testing.T) {
	d := testDesign(t)
	f := func(raw uint8) bool {
		n := int(raw%6) + 2
		pts, err := Sweep(context.Background(), d, "vdd", Linspace(1.0, 3.3, n))
		if err != nil {
			return false
		}
		return len(Pareto(pts)) == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMinSupply(t *testing.T) {
	d := testDesign(t)
	// At 1.5 V the cell runs at 20 ns (50 MHz).  Ask for something
	// slower: the minimum supply must drop below 1.5 V.
	v, err := MinSupply(context.Background(), d, 20e6, 0.9, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	if v >= 1.5 || v <= 0.9 {
		t.Errorf("MinSupply = %v, want in (0.9, 1.5)", v)
	}
	// The returned voltage meets the target; a hair lower misses it.
	r, _ := d.EvaluateAt(map[string]float64{"vdd": v})
	if float64(r.Delay) > 1/20e6+1e-12 {
		t.Errorf("returned supply misses target: %v", r.Delay)
	}
	r2, _ := d.EvaluateAt(map[string]float64{"vdd": v - 0.01})
	if float64(r2.Delay) <= 1/20e6 {
		t.Error("MinSupply not tight")
	}
	// Unreachable target.
	if _, err := MinSupply(context.Background(), d, 10e9, 0.9, 3.3); err == nil {
		t.Error("10GHz should be unreachable")
	}
	// lo already meets the target.
	v, err = MinSupply(context.Background(), d, 1e3, 0.9, 3.3)
	if err != nil || v != 0.9 {
		t.Errorf("easy target: %v, %v", v, err)
	}
	// Bad arguments.
	if _, err := MinSupply(context.Background(), d, 1e6, 3, 1); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := MinSupply(context.Background(), d, 0, 1, 3); err == nil {
		t.Error("zero target should fail")
	}
}

func TestVoltageScale(t *testing.T) {
	d := testDesign(t)
	s, err := VoltageScale(context.Background(), d, 20e6, 0.9, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	if s.MinVDD >= s.NominalVDD {
		t.Errorf("scaling found nothing: %+v", s)
	}
	if s.Saving() <= 0.5 {
		t.Errorf("quadratic savings expected, got %.0f%%", 100*s.Saving())
	}
	// Power ratio ≈ (Vmin/Vnom)².
	want := (s.MinVDD / s.NominalVDD) * (s.MinVDD / s.NominalVDD)
	if got := s.MinPower / s.NominalPower; math.Abs(got-want) > 1e-3 {
		t.Errorf("ratio = %v, want %v", got, want)
	}
	if (SupplySavings{}).Saving() != 0 {
		t.Error("zero value should be safe")
	}
}

func TestEDP(t *testing.T) {
	p := Point{Power: 2, Delay: 3}
	if p.EDP() != 18 {
		t.Errorf("EDP = %v", p.EDP())
	}
}
