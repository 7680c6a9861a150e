// Package explore implements the design-space exploration loops that
// PowerPlay's spreadsheet exists to serve: parameter sweeps, power/
// delay trade-off (Pareto) extraction, and operating-point solvers.
//
// The paper's enabler #3 is "a spread-sheet-like work sheet … which
// allows the study of the impact of parameter variations (such as
// supply voltage and clock frequency)".  This package drives the sheet
// across ranges and digests the results into the decisions an
// early-phase designer makes: which architecture wins where, how low
// the supply can go for a given throughput, and what headroom costs.
//
// # Columns
//
// A sweep is a batch: the swept values go in as a column, and the
// design's power, area and delay come out as columns (SweepColumns,
// Columns), priced in chunks on the caller's goroutine by the design's
// compiled plan — columnar where the sheet allows, EvaluateTotals per
// point where it does not — with no per-point map or Point on the way.
// Front reads the power and delay columns.  Sweep, Sweep2D, MinSupply
// and VoltageScale adapt the same core; Sweep and Sweep2D return
// []Point for library callers.  A call must not overlap an edit of its
// design (the web sweep page holds the user's read lock), and in return
// a repeated sweep of an unchanged design reuses the plan, baseline
// and columns earlier sweeps built.  The full contract — the
// live-design rule, cancellation, determinism and cache validity — is
// on Runner and Cache and in DESIGN.md's "Concurrent exploration".
package explore

import (
	"cmp"
	"context"
	"math"
	"slices"

	"powerplay/internal/core/sheet"
)

// Point is one evaluated design point.
type Point struct {
	// Vars holds the overridden variables at this point.
	Vars map[string]float64
	// Power, Area and Delay are the design totals.
	Power, Area, Delay float64
}

// EDP returns the energy-delay product proxy P·D² (power × delay² is
// the voltage-independent figure of merit for CMOS).
func (p Point) EDP() float64 { return p.Power * p.Delay * p.Delay }

// Columns holds a sweep's design totals, entry i for point i.
type Columns struct {
	Power, Area, Delay []float64
}

// makeColumns returns zeroed columns for n points, one allocation.
func makeColumns(n int) Columns {
	buf := make([]float64, 3*n)
	return Columns{Power: buf[:n:n], Area: buf[n : 2*n : 2*n], Delay: buf[2*n:]}
}

// points turns the columns into Points whose Vars come from vars(i).
func (c Columns) points(vars func(i int) map[string]float64) []Point {
	pts := make([]Point, len(c.Power))
	for i := range pts {
		pts[i] = Point{Vars: vars(i), Power: c.Power[i], Area: c.Area[i], Delay: c.Delay[i]}
	}
	return pts
}

// SweepColumns evaluates the design across values of one variable
// with a zero-value Runner and returns the totals as columns, entry i
// for values[i]: the engine's own shape, with no per-point Point or
// override map.  See Runner for the concurrency, cancellation and
// determinism guarantees.
func SweepColumns(ctx context.Context, d *sheet.Design, name string, values []float64) (Columns, error) {
	return (&Runner{}).columns(ctx, d, []string{name}, [][]float64{values})
}

// Linspace returns n evenly spaced values across [lo, hi].
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	// With finite endpoints, lo + i*step overflows only when hi-lo does
	// (or, rounding past hi near ±MaxFloat64, at the last point); those
	// points interpolate instead, so every point stays inside [lo, hi].
	finite := !math.IsInf(lo, 0) && !math.IsInf(hi, 0)
	for i := range out {
		v := lo + float64(i)*step
		if finite && (math.IsInf(step, 0) || math.IsInf(v, 0)) {
			t := float64(i) / float64(n-1)
			v = lo*(1-t) + hi*t
		}
		out[i] = v
	}
	return out
}

// Sweep evaluates the design across values of one variable using a
// zero-value Runner (default chunking, no cache); results are in input
// order.  Construct a Runner directly to set the chunk size or attach
// a Cache.
func Sweep(ctx context.Context, d *sheet.Design, name string, values []float64) ([]Point, error) {
	return (&Runner{}).Sweep(ctx, d, name, values)
}

// Sweep2D evaluates the cross product of two variables, row-major in
// the first variable, using a zero-value Runner.  Construct a Runner
// directly to set the chunk size or attach a Cache.
func Sweep2D(ctx context.Context, d *sheet.Design, n1 string, v1 []float64, n2 string, v2 []float64) ([]Point, error) {
	return (&Runner{}).Sweep2D(ctx, d, n1, v1, n2, v2)
}

// Pareto returns the power/delay non-dominated subset of points (see
// Front), sorted by increasing power, then delay (NaN first); points
// that tie on both keep their input order.
func Pareto(points []Point) []Point {
	power, delay := make([]float64, len(points)), make([]float64, len(points))
	for i, p := range points {
		power[i], delay[i] = p.Power, p.Delay
	}
	var out []Point
	for i, on := range Front(power, delay) {
		if on {
			out = append(out, points[i])
		}
	}
	slices.SortStableFunc(out, byPowerDelay)
	return out
}

// Front reports which points of a sweep's power and delay columns are
// non-dominated.  A point is dominated when another point is no worse
// in both power and delay and strictly better in one; a point with a
// NaN total neither dominates nor is dominated, so it is always on the
// front.  One sort by (power, delay) and one scan: O(n log n).
func Front(power, delay []float64) []bool {
	on := make([]bool, len(power))
	idx := make([]int, 0, len(power))
	for i := range power {
		if math.IsNaN(power[i]) || math.IsNaN(delay[i]) {
			on[i] = true
		} else {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return comparePD(power[a], delay[a], power[b], delay[b]) })
	// best is the least delay over all points of strictly lower power.
	best, seen := 0.0, false
	for g := 0; g < len(idx); {
		pw, least := power[idx[g]], delay[idx[g]]
		e := g
		for ; e < len(idx) && power[idx[e]] == pw; e++ {
			d := delay[idx[e]]
			// Dominated by an equal-power point of less delay, or by a
			// lower-power point of no more delay.
			on[idx[e]] = d == least && !(seen && best <= d)
		}
		if !seen || least < best {
			best, seen = least, true
		}
		g = e
	}
	return on
}

// byPowerDelay orders points by power, then delay, in cmp.Compare's
// order (NaN first).
func byPowerDelay(p, q Point) int { return comparePD(p.Power, p.Delay, q.Power, q.Delay) }

// comparePD orders (power, delay) pairs as byPowerDelay does.
func comparePD(pa, da, pb, db float64) int {
	if c := cmp.Compare(pa, pb); c != 0 {
		return c
	}
	return cmp.Compare(da, db)
}

// MinSupply finds, by bisection, the lowest supply voltage in
// [lo, hi] at which the design's critical path still meets the cycle
// time 1/fTarget, using a zero-value Runner.  See Runner.MinSupply for
// the search and cancellation semantics.
func MinSupply(ctx context.Context, d *sheet.Design, fTarget, lo, hi float64) (float64, error) {
	return (&Runner{}).MinSupply(ctx, d, fTarget, lo, hi)
}

// SupplySavings reports the power saved by running a design at the
// minimum supply that still meets fTarget, versus a nominal supply.
type SupplySavings struct {
	// NominalVDD and MinVDD are the compared operating points.
	NominalVDD, MinVDD float64
	// NominalPower and MinPower are the design totals at each.
	NominalPower, MinPower float64
}

// Saving returns the fractional reduction.
func (s SupplySavings) Saving() float64 {
	if s.NominalPower == 0 {
		return 0
	}
	return 1 - s.MinPower/s.NominalPower
}

// VoltageScale computes the classic voltage-scaling exploration —
// find the minimum supply meeting fTarget within [lo, nominal] and
// compare power against running at the nominal supply — using a
// zero-value Runner.  See Runner.VoltageScale.
func VoltageScale(ctx context.Context, d *sheet.Design, fTarget, lo, nominal float64) (SupplySavings, error) {
	return (&Runner{}).VoltageScale(ctx, d, fTarget, lo, nominal)
}
