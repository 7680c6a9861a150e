// Package explore implements the design-space exploration loops that
// PowerPlay's spreadsheet exists to serve: parameter sweeps, power/
// delay trade-off (Pareto) extraction, and operating-point solvers.
//
// The paper's enabler #3 is "a spread-sheet-like work sheet … which
// allows the study of the impact of parameter variations (such as
// supply voltage and clock frequency)".  The sheet's EvaluateAt gives
// single points; this package drives it across ranges and digests the
// results into the decisions an early-phase designer actually makes:
// which architecture wins where, how low the supply can go for a given
// throughput, and what the energy cost of headroom is.
//
// # Concurrency
//
// One site serves many designers, so the parallelism worth having is
// across requests, not inside one: a Runner call prices its points in
// chunks on the caller's goroutine and starts none of its own.  Every
// call reads the design directly — its cached compiled plan and
// hoisted baseline — and an optional Cache memoizes repeated operating
// points.  Any number of calls may overlap on one design and one
// Runner; a caller that wants one sweep spread over several cores
// issues concurrent calls on disjoint value ranges.  The caller must
// not mutate the design during a call (the web sweep page holds the
// user's read lock), and in return a sweep of an unchanged design
// reuses the plan an earlier sweep compiled.  The package-level Sweep, Sweep2D, MinSupply and
// VoltageScale are thin wrappers over a zero-value Runner; all of them
// take a context.Context and stop at the next chunk boundary once it
// is canceled.  The full contract — the live-design rule, cancellation,
// determinism, and cache validity — is documented on Runner, Cache and
// in DESIGN.md's "Concurrent exploration" section.
package explore

import (
	"context"
	"math"
	"sort"

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
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// Geomspace returns n logarithmically spaced values across [lo, hi];
// both bounds must be positive.
func Geomspace(lo, hi float64, n int) []float64 {
	if n <= 0 || lo <= 0 || hi <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
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

// Pareto returns the power/delay non-dominated subset of points,
// sorted by increasing power.  A point is dominated when another point
// is no worse in both power and delay and strictly better in one.
func Pareto(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Power <= p.Power && q.Delay <= p.Delay &&
				(q.Power < p.Power || q.Delay < p.Delay) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Power != out[j].Power {
			return out[i].Power < out[j].Power
		}
		return out[i].Delay < out[j].Delay
	})
	return out
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
