package explore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"powerplay/internal/core/sheet"
	"powerplay/internal/obs"
)

// Engine instrumentation: points priced, chunks processed, time spent
// evaluating, sweeps torn down early.  A handful of counter adds per chunk
// — noise next to a sheet evaluation.
var (
	explorePoints = obs.NewCounter("powerplay_explore_points_total",
		"Design points evaluated (or recalled from cache) by the exploration engine.")
	exploreBusySeconds = obs.NewCounter("powerplay_explore_worker_busy_seconds_total",
		"Cumulative time the exploration engine spent evaluating sweeps.")
	exploreCancellations = obs.NewCounter("powerplay_explore_cancellations_total",
		"Explorations abandoned because their context was canceled or timed out.")
	// exploreChunks tells the columnar story per chunk: "columnar"
	// chunks ran the batch executor end to end, "scalar" chunks fell
	// back to per-point evaluation (non-batchable sheet, failed batch,
	// batching disabled), "cached" chunks were answered entirely from
	// the point cache.
	exploreChunks = obs.NewCounterVec("powerplay_explore_chunks_total",
		"Sweep chunks processed by the exploration engine, by result.", "result")
	// exploreBatchPoints splits the same traffic per point: how many
	// points each path actually resolved.  columnar/scalar/cache adds
	// sum to powerplay_explore_points_total for chunked sweeps.
	exploreBatchPoints = obs.NewCounterVec("powerplay_explore_batch_points_total",
		"Sweep points resolved by the chunked exploration engine, by path.", "path")
)

// DefaultChunkSize is the sweep chunk size a zero Runner.ChunkSize
// selects.  256 points is large enough to amortize the columnar
// executor's per-chunk dispatch to nothing and small enough that a
// chunk's column working set stays cache-resident.
const DefaultChunkSize = 256

// noteInterrupted records (and logs, with the request ID the context
// carries) an exploration that died of cancellation or deadline rather
// than a bad point.
func noteInterrupted(ctx context.Context, err error, points int) {
	if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	exploreCancellations.Inc()
	obs.Log(ctx).Debug("explore: sweep interrupted", "points", points, "err", err)
}

// Runner is the exploration engine: it prices design points in
// fixed-size chunks on the caller's goroutine — columnar when the
// sheet allows, per point otherwise — and returns them in input order.
//
// The zero value is ready to use and is what the package-level Sweep,
// Sweep2D, MinSupply and VoltageScale delegate to.
//
// # Concurrency contract
//
// A call starts no goroutine.  It reads the design it is given and
// nothing else: it uses the design's cached compiled plan and hoisted
// baseline with private slot vectors, and a design whose plan does not
// compile evaluates through EvaluateAt, which is safe for concurrent
// readers.  The caller must not mutate the design during a call: the
// web sweep page holds the user's read lock, which keeps edits out, so
// a sweep of an unchanged sheet reuses the plan every earlier sweep
// compiled.  One Runner may serve any number of concurrent calls; it
// holds no mutable state of its own beyond the optional Cache, which
// is internally locked.  A caller that wants one sweep spread over
// several cores issues concurrent calls on disjoint value ranges.
//
// Cancellation: every method takes a context.Context and stops promptly
// — no later than the next chunk boundary (the next point boundary when
// evaluating per point) — when the context is canceled or its deadline
// passes, returning an error that wraps ctx.Err() (so
// errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work).  Points already
// evaluated are discarded; partial sweeps are never returned.
//
// Determinism: results are ordered by input position regardless of
// chunking, and a failing sweep reports the error of the
// lowest-indexed failing point with the same text EvaluateAt produces.
// The columnar fast path never reports its own errors — a chunk whose
// batch evaluation fails is re-evaluated point by point, which
// rediscovers the canonical failure in order — so batched and
// unbatched runs are observably identical apart from wall-clock time.
type Runner struct {
	// Deprecated: ignored; every call runs on the caller's goroutine.
	Workers int

	// ChunkSize sets how many consecutive points are priced together
	// — the unit of columnar evaluation and of cancellation.  Zero or
	// negative selects DefaultChunkSize; 1 disables columnar
	// evaluation entirely (every point runs the scalar path).
	ChunkSize int

	// Cache, when non-nil, memoizes evaluated points by override
	// vector (see Cache for the validity rules).  Every call shares
	// it, concurrent ones included, so a repeated call over the same
	// design hits memoized points.  Each
	// requested point costs exactly one lookup per sweep — a hit fills
	// the point from the record, a miss evaluates and stores it
	// without a second lookup — so Stats counts requests, not internal
	// traffic.
	Cache *Cache
}

// chunkSize resolves the effective chunk length.
func (r *Runner) chunkSize() int {
	if r.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return r.ChunkSize
}

// Sweep evaluates the design across values of one variable, in order.
// See the Runner type documentation for the concurrency, cancellation
// and determinism guarantees.
func (r *Runner) Sweep(ctx context.Context, d *sheet.Design, name string, values []float64) ([]Point, error) {
	overrides := make([]map[string]float64, len(values))
	for i, v := range values {
		overrides[i] = map[string]float64{name: v}
	}
	return r.run(ctx, d, overrides)
}

// Sweep2D evaluates the cross product of two variables, row-major in
// the first variable (the same ordering the serial implementation
// produced).  See the Runner type documentation for the concurrency,
// cancellation and determinism guarantees.
func (r *Runner) Sweep2D(ctx context.Context, d *sheet.Design, n1 string, v1 []float64, n2 string, v2 []float64) ([]Point, error) {
	overrides := make([]map[string]float64, 0, len(v1)*len(v2))
	for _, a := range v1 {
		for _, b := range v2 {
			overrides = append(overrides, map[string]float64{n1: a, n2: b})
		}
	}
	return r.run(ctx, d, overrides)
}

// MinSupply finds, by bisection, the lowest supply voltage in [lo, hi]
// at which the design's critical path still meets the cycle time
// 1/fTarget.  It relies on delay decreasing monotonically with supply
// (the alpha-power law all library delays follow).  It returns an
// error if even hi misses the target, if the design fails to evaluate,
// or if ctx is canceled mid-search.
//
// Bisection probes one point at a time, so MinSupply never batches;
// it honors ctx at every probe, and a Runner with a Cache answers a
// repeated search from memoized operating points.
func (r *Runner) MinSupply(ctx context.Context, d *sheet.Design, fTarget, lo, hi float64) (float64, error) {
	if !(lo > 0 && hi > lo) {
		return 0, fmt.Errorf("explore: bad supply range [%g, %g]", lo, hi)
	}
	if fTarget <= 0 {
		return 0, fmt.Errorf("explore: bad frequency target %g", fTarget)
	}
	target := 1 / fTarget
	// Bisection probes share one override-name set, so the invariant
	// part of the design is hoisted once for the whole search.
	ev := newEval(hoist(d, map[string]float64{"vdd": lo}))
	meets := func(vdd float64) (bool, error) {
		p, err := r.point(ctx, d, ev, map[string]float64{"vdd": vdd})
		if err != nil {
			return false, err
		}
		return p.Delay <= target, nil
	}
	ok, err := meets(hi)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("explore: target %g Hz unreachable even at %g V", fTarget, hi)
	}
	if ok, err := meets(lo); err != nil {
		return 0, err
	} else if ok {
		return lo, nil
	}
	for i := 0; i < 60 && hi-lo > 1e-4; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// VoltageScale computes the classic voltage-scaling exploration: find
// the minimum supply meeting fTarget within [lo, nominal] and compare
// power against running at the nominal supply.  It honors ctx at every
// evaluation and shares the Runner's Cache.
func (r *Runner) VoltageScale(ctx context.Context, d *sheet.Design, fTarget, lo, nominal float64) (SupplySavings, error) {
	min, err := r.MinSupply(ctx, d, fTarget, lo, nominal)
	if err != nil {
		return SupplySavings{}, err
	}
	ev := newEval(hoist(d, map[string]float64{"vdd": nominal}))
	pNom, err := r.point(ctx, d, ev, map[string]float64{"vdd": nominal})
	if err != nil {
		return SupplySavings{}, err
	}
	pMin, err := r.point(ctx, d, ev, map[string]float64{"vdd": min})
	if err != nil {
		return SupplySavings{}, err
	}
	return SupplySavings{
		NominalVDD: nominal, MinVDD: min,
		NominalPower: pNom.Power, MinPower: pMin.Power,
	}, nil
}

// run evaluates one point per override map against d, preserving input
// order in the returned slice.
//
// Before any point is evaluated, run hoists the sweep-invariant part of
// the computation: it compiles the design's evaluation plan for the
// override-name set (all points of a sweep share one), executes every
// step that cannot depend on the swept variables once, and snapshots
// the result.  The points are then processed in chunks: each chunk's
// cache misses are evaluated columnar against the baseline (one
// sheet.BatchEval pass over the whole chunk), falling back to the
// per-point replay, which returns the canonical error messages — and,
// when hoisting is unavailable, to the full EvaluateAt path.
func (r *Runner) run(ctx context.Context, d *sheet.Design, overrides []map[string]float64) ([]Point, error) {
	n := len(overrides)
	out := make([]Point, n)
	if n == 0 {
		return out, nil
	}
	if err := r.runChunks(ctx, d, overrides, out, hoist(d, overrides[0]), r.chunkSize()); err != nil {
		noteInterrupted(ctx, err, n)
		return nil, err
	}
	return out, nil
}

// hoist builds the sweep-invariant baseline for a call whose points
// all override the names ov does (every caller builds such a list).
// It returns nil — meaning "no fast path, evaluate every point through
// EvaluateAt" — when the plan does not compile (e.g. a static cycle).
// A failing invariant binding does not block hoisting: the baseline
// stores it, and a point raises it only if its evaluation reads it,
// with EvaluateAt's exact error.
func hoist(d *sheet.Design, ov map[string]float64) *sheet.Sweeper {
	names := make([]string, 0, len(ov))
	for n := range ov {
		names = append(names, n)
	}
	sort.Strings(names)
	plan, err := d.PlanFor(names)
	if err != nil {
		return nil
	}
	// Sweeps over an unchanged design share one hoisted baseline
	// (memoized on the plan, keyed to the registry generation), so
	// repeated sweeps warm-start from the invariant cone instead of
	// re-executing it per run.
	return plan.SharedSweeper()
}

// newEval is the nil-safe per-call evaluation context constructor:
// a nil Sweeper (hoisting unavailable) yields a nil SweepEval, which
// the point evaluators treat as "no fast path".
func newEval(sw *sheet.Sweeper) *sheet.SweepEval {
	if sw == nil {
		return nil
	}
	return sw.NewEval()
}

// newBatchEval is the nil-safe columnar counterpart: no baseline or a
// chunk too small to batch yields nil, which runChunk treats as
// "scalar only".
func newBatchEval(sw *sheet.Sweeper, chunk int) *sheet.BatchEval {
	if sw == nil || chunk < 2 {
		return nil
	}
	return sw.NewBatchEval(chunk)
}

// runChunks prices the chunks in order on the caller's goroutine and
// stops at the first failing point, which is therefore the
// lowest-indexed one — the error a point-by-point run reports.  The
// columns are sized to the sweep when it is shorter than a chunk.
func (r *Runner) runChunks(ctx context.Context, d *sheet.Design, overrides []map[string]float64, out []Point, sw *sheet.Sweeper, chunk int) error {
	start := time.Now()
	defer func() { exploreBusySeconds.Add(time.Since(start).Seconds()) }()
	ev := newEval(sw)
	bev := newBatchEval(sw, min(chunk, len(overrides)))
	for lo := 0; lo < len(overrides); lo += chunk {
		if err := r.runChunk(ctx, d, ev, bev, overrides, out, lo, min(lo+chunk, len(overrides))); err != nil {
			return err
		}
	}
	return nil
}

// runChunk prices points [lo, hi) of the sweep.  The chunk makes one
// pass over the cache (exactly one lookup per requested point — a
// cached point re-requested within a sweep counts one hit, never two),
// evaluates the misses columnar in a single BatchEval pass, and on any
// batch error — whose text and position are not canonical, see the
// BatchEval contract — re-evaluates the misses in order through the
// scalar path, which reproduces the error of the lowest-indexed
// failing point verbatim.
func (r *Runner) runChunk(ctx context.Context, d *sheet.Design, ev *sheet.SweepEval, bev *sheet.BatchEval, overrides []map[string]float64, out []Point, lo, hi int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("explore: sweep interrupted: %w", err)
	}
	n := hi - lo
	pending := make([]int, 0, n) // chunk-relative indexes still to price
	var keys []string
	if r.Cache != nil {
		keys = make([]string, n)
		for rel := 0; rel < n; rel++ {
			ov := overrides[lo+rel]
			keys[rel] = Key(ov)
			if rec, ok := r.Cache.lookup(keys[rel]); ok {
				out[lo+rel] = Point{Vars: ov, Power: rec.power, Area: rec.area, Delay: rec.delay}
				explorePoints.Inc()
				exploreBatchPoints.With("cache").Inc()
				continue
			}
			pending = append(pending, rel)
		}
	} else {
		for rel := 0; rel < n; rel++ {
			pending = append(pending, rel)
		}
	}
	if len(pending) == 0 {
		exploreChunks.With("cached").Inc()
		return nil
	}
	if bev != nil && r.chunkColumnar(ctx, bev, overrides, out, lo, pending, keys) {
		return nil
	}
	exploreChunks.With("scalar").Inc()
	for _, rel := range pending {
		var key string
		if keys != nil {
			key = keys[rel]
		}
		p, err := r.evalPoint(ctx, d, ev, overrides[lo+rel], key)
		if err != nil {
			return err
		}
		out[lo+rel] = p
		exploreBatchPoints.With("scalar").Inc()
	}
	return nil
}

// chunkColumnar attempts one columnar evaluation of a chunk's pending
// points, back-filling results (and the cache) on success.  It reports
// false — claiming nothing, counting nothing — when the batch fails
// (including by cancellation); the caller's scalar pass then owns the
// chunk and reproduces the canonical error.
func (r *Runner) chunkColumnar(ctx context.Context, bev *sheet.BatchEval, overrides []map[string]float64, out []Point, lo int, pending []int, keys []string) bool {
	m := len(pending)
	pts := make([]map[string]float64, m)
	for i, rel := range pending {
		pts[i] = overrides[lo+rel]
	}
	pw := make([]float64, m)
	area := make([]float64, m)
	delay := make([]float64, m)
	if err := bev.Run(ctx, pts, pw, area, delay); err != nil {
		return false
	}
	for i, rel := range pending {
		p := Point{Vars: pts[i], Power: pw[i], Area: area[i], Delay: delay[i]}
		if r.Cache != nil {
			r.Cache.store(cacheRecord{key: keys[rel], power: p.Power, area: p.Area, delay: p.Delay})
		}
		out[lo+rel] = p
		explorePoints.Inc()
	}
	exploreChunks.With("columnar").Inc()
	exploreBatchPoints.With("columnar").Add(float64(m))
	return true
}

// evalPoint prices one point through the scalar path and, when the
// Runner has a cache, stores it under key — already canonicalized by
// the caller's cache pass.  evalPoint itself never looks the point up:
// the lookup happened when the point entered its chunk (or in point),
// so hit/miss accounting counts each requested point exactly once.
//
// When ev is non-nil the hoisted path prices the point, replaying only
// the override-dependent cone of the compiled plan; its totals and
// errors are EvaluateAt's.  Without it (hoisting unavailable) the point
// runs through EvaluateAt itself.
func (r *Runner) evalPoint(ctx context.Context, d *sheet.Design, ev *sheet.SweepEval, overrides map[string]float64, key string) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, fmt.Errorf("explore: sweep interrupted: %w", err)
	}
	p := Point{Vars: overrides}
	var err error
	if ev != nil {
		p.Power, p.Area, p.Delay, err = ev.At(overrides)
	} else {
		var res *sheet.Result
		if res, err = d.EvaluateAt(overrides); err == nil {
			p.Power, p.Area, p.Delay = float64(res.Power), float64(res.Area), float64(res.Delay)
		}
	}
	if err != nil {
		return Point{}, fmt.Errorf("explore: %s: %w", overridesLabel(overrides), err)
	}
	if r.Cache != nil {
		r.Cache.store(cacheRecord{key: key, power: p.Power, area: p.Area, delay: p.Delay})
	}
	explorePoints.Inc()
	return p, nil
}

// point evaluates (or recalls from cache) a single override vector —
// the sequential entry point MinSupply and VoltageScale probe through.
// It checks ctx before doing any work, so a canceled search stops at
// the next probe.
func (r *Runner) point(ctx context.Context, d *sheet.Design, ev *sheet.SweepEval, overrides map[string]float64) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, fmt.Errorf("explore: sweep interrupted: %w", err)
	}
	var key string
	if r.Cache != nil {
		key = Key(overrides)
		if rec, ok := r.Cache.lookup(key); ok {
			explorePoints.Inc()
			return Point{Vars: overrides, Power: rec.power, Area: rec.area, Delay: rec.delay}, nil
		}
	}
	return r.evalPoint(ctx, d, ev, overrides, key)
}

// overridesLabel renders an override vector for error messages
// ("vdd=1.5 f=2e+06"), names sorted for determinism.
func overridesLabel(overrides map[string]float64) string {
	names := make([]string, 0, len(overrides))
	for n := range overrides {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%g", n, overrides[n])
	}
	return strings.Join(parts, " ")
}
