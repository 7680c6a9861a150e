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
	// back to per-point evaluation (non-compiling sheet, failed batch,
	// batching disabled, one-point probes), "cached" chunks were
	// answered entirely from the point cache.
	exploreChunks = obs.NewCounterVec("powerplay_explore_chunks_total",
		"Sweep chunks processed by the exploration engine, by result.", "result")
	// exploreBatchPoints splits the same traffic per point: how many
	// points each path actually resolved.  columnar/scalar/cache adds
	// sum to powerplay_explore_points_total.
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
// nothing else: a columnar chunk runs over the design's cached compiled
// plan and hoisted baseline with private columns, and every other
// point runs through EvaluateTotals, which is safe for concurrent
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
	// evaluation entirely (every point runs through EvaluateTotals).
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
// each probe is a one-point run, so it honors ctx, counts in the
// engine's metrics and consults the Runner's Cache exactly as a sweep
// point does.
func (r *Runner) MinSupply(ctx context.Context, d *sheet.Design, fTarget, lo, hi float64) (float64, error) {
	if !(lo > 0 && hi > lo) {
		return 0, fmt.Errorf("explore: bad supply range [%g, %g]", lo, hi)
	}
	if fTarget <= 0 {
		return 0, fmt.Errorf("explore: bad frequency target %g", fTarget)
	}
	target := 1 / fTarget
	meets := func(vdd float64) (bool, error) {
		pts, err := r.run(ctx, d, []map[string]float64{{"vdd": vdd}})
		if err != nil {
			return false, err
		}
		return pts[0].Delay <= target, nil
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
	pts, err := r.run(ctx, d, []map[string]float64{{"vdd": nominal}, {"vdd": min}})
	if err != nil {
		return SupplySavings{}, err
	}
	return SupplySavings{
		NominalVDD: nominal, MinVDD: min,
		NominalPower: pts[0].Power, MinPower: pts[1].Power,
	}, nil
}

// run evaluates one point per override map against d, preserving input
// order in the returned slice.
//
// The points are processed in chunks: each chunk's cache misses are
// evaluated columnar (one sheet.BatchEval pass over the whole chunk,
// against the sweep-invariant baseline the design's compiled plan
// hoists once), falling back to EvaluateTotals point by point, which
// returns the canonical error messages.  A call that cannot batch —
// one point, ChunkSize 1, or a plan that does not compile — prices
// every point through EvaluateTotals.
func (r *Runner) run(ctx context.Context, d *sheet.Design, overrides []map[string]float64) ([]Point, error) {
	n := len(overrides)
	out := make([]Point, n)
	if n == 0 {
		return out, nil
	}
	if err := r.runChunks(ctx, d, overrides, out); err != nil {
		noteInterrupted(ctx, err, n)
		return nil, err
	}
	return out, nil
}

// newBatchEval returns the columnar context for a call whose points
// all override the names ov does (every caller builds such a list),
// sized for n points per chunk, or nil — every point through
// EvaluateTotals — when n < 2 or the plan does not compile (e.g. a
// static cycle).  A failing invariant binding does not block it: the
// baseline stores the failure, and a chunk that trips over it replays
// through EvaluateTotals.
func newBatchEval(d *sheet.Design, ov map[string]float64, n int) *sheet.BatchEval {
	if n < 2 {
		return nil
	}
	names := make([]string, 0, len(ov))
	for name := range ov {
		names = append(names, name)
	}
	sort.Strings(names)
	plan, err := d.PlanFor(names)
	if err != nil {
		return nil
	}
	return plan.NewBatchEval(n)
}

// runChunks prices the chunks in order on the caller's goroutine and
// stops at the first failing point, which is therefore the
// lowest-indexed one — the error a point-by-point run reports.  The
// columns are sized to the sweep when it is shorter than a chunk.
func (r *Runner) runChunks(ctx context.Context, d *sheet.Design, overrides []map[string]float64, out []Point) error {
	start := time.Now()
	defer func() { exploreBusySeconds.Add(time.Since(start).Seconds()) }()
	chunk := r.chunkSize()
	bev := newBatchEval(d, overrides[0], min(chunk, len(overrides)))
	for lo := 0; lo < len(overrides); lo += chunk {
		if err := r.runChunk(ctx, d, bev, overrides, out, lo, min(lo+chunk, len(overrides))); err != nil {
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
// BatchEval contract — re-evaluates the misses in order through
// EvaluateTotals, which reproduces the error of the lowest-indexed
// failing point verbatim.
func (r *Runner) runChunk(ctx context.Context, d *sheet.Design, bev *sheet.BatchEval, overrides []map[string]float64, out []Point, lo, hi int) error {
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
		p, err := r.evalPoint(ctx, d, overrides[lo+rel], key)
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

// evalPoint prices one point through EvaluateTotals and, when the
// Runner has a cache, stores it under key — already canonicalized by
// the caller's cache pass.  evalPoint itself never looks the point up:
// the lookup happened when the point entered its chunk, so hit/miss
// accounting counts each requested point exactly once.
func (r *Runner) evalPoint(ctx context.Context, d *sheet.Design, overrides map[string]float64, key string) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, fmt.Errorf("explore: sweep interrupted: %w", err)
	}
	p := Point{Vars: overrides}
	var err error
	if p.Power, p.Area, p.Delay, err = d.EvaluateTotals(overrides); err != nil {
		return Point{}, fmt.Errorf("explore: %s: %w", overridesLabel(overrides), err)
	}
	if r.Cache != nil {
		r.Cache.store(cacheRecord{key: key, power: p.Power, area: p.Area, delay: p.Delay})
	}
	explorePoints.Inc()
	return p, nil
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
