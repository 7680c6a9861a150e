package explore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"powerplay/internal/core/model"
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

// Runner configures the exploration engine's column core, which every
// sweep and solver of this package runs through: one column per swept
// variable in, power, area and delay columns out, in input order.
// Points are priced in fixed-size chunks on the caller's goroutine —
// one BatchEval pass per chunk when the sheet allows, EvaluateTotals
// per point otherwise, the only path that needs an override map.  The
// zero value is ready to use and is what SweepColumns and the
// package-level functions run on.
//
// # Concurrency contract
//
// A call starts no goroutine and reads only the design it is given: a
// columnar chunk runs over the design's cached plan and hoisted
// baseline on a BatchEval the call holds alone (the plan's spare when
// free) and hands back as the spare when it ends; every other point
// runs through EvaluateTotals, which is safe for concurrent readers.
// The caller must not mutate the design during a call (the web sweep
// page holds the user's read lock).  One Runner may serve any number
// of concurrent calls; its only shared state is the optional Cache,
// which is internally locked.
//
// Cancellation: every method takes a context.Context and stops — no
// later than the next chunk boundary (the next point boundary when
// evaluating per point) — once it is canceled or past its deadline,
// returning an error that wraps ctx.Err(), so errors.Is classifies it.
// Partial sweeps are never returned.
//
// Determinism: results are in input order regardless of chunking, and
// a failing sweep reports the lowest-indexed failing point's error
// with the text EvaluateAt produces.  A chunk whose batch evaluation
// fails is re-evaluated point by point, which rediscovers the
// canonical failure, so batched and unbatched runs are observably
// identical apart from wall-clock time.
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
	// it, concurrent ones included.  Each requested point costs
	// exactly one lookup per sweep — a hit fills the point from the
	// record, a miss evaluates and stores it without a second lookup —
	// so Stats counts requests, not internal traffic.
	Cache *Cache
}

// Sweep evaluates the design across values of one variable, in order.
// See the Runner type documentation for the concurrency, cancellation
// and determinism guarantees.
func (r *Runner) Sweep(ctx context.Context, d *sheet.Design, name string, values []float64) ([]Point, error) {
	cols, err := r.columns(ctx, d, []string{name}, [][]float64{values})
	if err != nil {
		return nil, err
	}
	return cols.points(func(i int) map[string]float64 { return map[string]float64{name: values[i]} }), nil
}

// Sweep2D evaluates the cross product of two variables, row-major in
// the first variable.  See the Runner type documentation for the
// concurrency, cancellation and determinism guarantees.
func (r *Runner) Sweep2D(ctx context.Context, d *sheet.Design, n1 string, v1 []float64, n2 string, v2 []float64) ([]Point, error) {
	a, b := make([]float64, len(v1)*len(v2)), make([]float64, len(v1)*len(v2))
	for i := range a {
		a[i], b[i] = v1[i/len(v2)], v2[i%len(v2)]
	}
	names, vals := []string{n1, n2}, [][]float64{a, b}
	switch {
	case n1 == n2: // a point's override map keeps the second value
		names, vals = names[1:], vals[1:]
	case n2 < n1:
		names[0], names[1], vals[0], vals[1] = n2, n1, b, a
	}
	cols, err := r.columns(ctx, d, names, vals)
	if err != nil {
		return nil, err
	}
	return cols.points(func(i int) map[string]float64 { return map[string]float64{n1: a[i], n2: b[i]} }), nil
}

// vddName is the override-name list of a supply run.
var vddName = []string{model.ParamVDD}

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
		cols, err := r.columns(ctx, d, vddName, [][]float64{{vdd}})
		if err != nil {
			return false, err
		}
		return cols.Delay[0] <= target, nil
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
	cols, err := r.columns(ctx, d, vddName, [][]float64{{nominal, min}})
	if err != nil {
		return SupplySavings{}, err
	}
	return SupplySavings{
		NominalVDD: nominal, MinVDD: min,
		NominalPower: cols.Power[0], MinPower: cols.Power[1],
	}, nil
}

// columns is the column core: vals[k][i] is variable names[k] at point
// i (names sorted and distinct, columns of one length), and entry i of
// the result is point i's totals.  Chunks run in order and the first
// failing one stops the call.  A call that cannot batch — one point,
// ChunkSize 1, or a plan that does not compile (e.g. a static cycle) —
// prices every point through EvaluateTotals.
func (r *Runner) columns(ctx context.Context, d *sheet.Design, names []string, vals [][]float64) (Columns, error) {
	n := len(vals[0])
	out := makeColumns(n)
	if n == 0 {
		return out, nil
	}
	start := time.Now()
	defer func() { exploreBusySeconds.Add(time.Since(start).Seconds()) }()
	sw := sweep{r: r, ctx: ctx, d: d, names: names}
	chunk := r.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	if min(chunk, n) > 1 {
		if plan, err := d.PlanFor(names); err == nil {
			sw.bev = plan.NewBatchEval(min(chunk, n))
			defer sw.bev.Release()
		}
	}
	in := vals // one chunk reads the columns whole
	if n > chunk {
		in = make([][]float64, len(vals))
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		for k := range vals {
			in[k] = vals[k][lo:hi]
		}
		if err := sw.chunk(in, Columns{out.Power[lo:hi], out.Area[lo:hi], out.Delay[lo:hi]}); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				exploreCancellations.Inc()
				obs.Log(ctx).Debug("explore: sweep interrupted", "points", n, "err", err)
			}
			return Columns{}, err
		}
	}
	return out, nil
}

// sweep is one call's state.  ov is the override map the scalar path
// refills per point (EvaluateTotals keeps no reference to it).
type sweep struct {
	r     *Runner
	ctx   context.Context
	d     *sheet.Design
	bev   *sheet.BatchEval
	names []string
	ov    map[string]float64
}

// chunk prices one chunk of points into res.  With a Cache it looks
// each point up once (a point repeated within the chunk is two
// misses), prices the misses gathered into columns of their own, and
// stores each priced miss.
func (s *sweep) chunk(in [][]float64, res Columns) error {
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("explore: sweep interrupted: %w", err)
	}
	c := s.r.Cache
	if c == nil {
		_, err := s.price(in, res)
		return err
	}
	var miss []int
	var keys []string
	for i := range res.Power {
		key := keyAt(s.names, in, i)
		if rec, ok := c.lookup(key); ok {
			res.Power[i], res.Area[i], res.Delay[i] = rec.power, rec.area, rec.delay
			continue
		}
		miss, keys = append(miss, i), append(keys, key)
	}
	if hits := len(res.Power) - len(miss); hits > 0 {
		explorePoints.Add(float64(hits))
		exploreBatchPoints.With("cache").Add(float64(hits))
	}
	if len(miss) == 0 {
		exploreChunks.With("cached").Inc()
		return nil
	}
	sub := make([][]float64, len(in))
	for k := range in {
		sub[k] = make([]float64, len(miss))
		for m, i := range miss {
			sub[k][m] = in[k][i]
		}
	}
	got := makeColumns(len(miss))
	done, err := s.price(sub, got)
	for m, i := range miss[:done] {
		res.Power[i], res.Area[i], res.Delay[i] = got.Power[m], got.Area[m], got.Delay[m]
		c.store(cacheRecord{key: keys[m], power: got.Power[m], area: got.Area[m], delay: got.Delay[m]})
	}
	return err
}

// price fills res with the totals of every point of in: one BatchEval
// pass, or — without one, or when it fails, since a batch error is
// never canonical — point by point through EvaluateTotals up to the
// first failing point.  It reports how many leading points it priced.
func (s *sweep) price(in [][]float64, res Columns) (int, error) {
	n := len(res.Power)
	if s.bev != nil && s.bev.Run(s.ctx, in, res.Power, res.Area, res.Delay) == nil {
		countChunk("columnar", n)
		return n, nil
	}
	if s.ov == nil {
		s.ov = make(map[string]float64, len(s.names))
	}
	done := 0
	var err error
	for ; done < n; done++ {
		if err = s.ctx.Err(); err != nil {
			err = fmt.Errorf("explore: sweep interrupted: %w", err)
			break
		}
		for k, name := range s.names {
			s.ov[name] = in[k][done]
		}
		if res.Power[done], res.Area[done], res.Delay[done], err = s.d.EvaluateTotals(s.ov); err != nil {
			err = fmt.Errorf("explore: %s: %w", overridesLabel(s.ov), err)
			break
		}
	}
	countChunk("scalar", done)
	return done, err
}

// countChunk records one chunk priced by path and the points it priced.
func countChunk(path string, points int) {
	exploreChunks.With(path).Inc()
	if points > 0 {
		explorePoints.Add(float64(points))
		exploreBatchPoints.With(path).Add(float64(points))
	}
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
