package sheet

// Incremental Play: dirty-cone recompute over compiled plans.
//
// The interactive loop the paper centers on — edit a cell, hit Play,
// read the new power column — touches one binding at a time, yet a
// plain Evaluate re-runs every step of the plan.  The Incremental
// engine retains the last run's slot vector and diffs the freshly
// compiled plan against the one that produced it: expressions are
// immutable and rebinding a cell swaps pointers, so comparing step
// expression identities across two congruent plans yields exactly the
// edited cells.  Dirtiness then propagates through the same slot
// read/write sets the variance analysis uses, and only the dirty cone
// re-executes over the retained baseline.
//
// Correctness contract (the same one the compiled and batch paths are
// held to): an incremental Play returns values bit-identical to a
// from-scratch full evaluation, including NaN/Inf propagation and
// error text/positions.  The guarantees stack as follows —
//
//   - Clean steps' slots hold values a full run would recompute
//     identically: their expressions are unchanged, their inputs are
//     clean (dirtiness is closed under the conservative read sets),
//     and their models are pure functions of their parameters for as
//     long as the registry generation holds (volatile models — remote
//     proxies, macros over them — never count as clean).
//   - Any structural change (row or binding added/removed/renamed, a
//     changed slot layout) fails congruence and forces a full run.
//   - Any error, at compile or run time, abandons the retained state
//     and falls back to the tree interpreter, which re-derives the
//     canonical error message — exactly as Design.Evaluate does.
//
// Full recompute stays available: callers that distrust the diffing
// (or want the old cost model) simply keep using Design.Evaluate.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"powerplay/internal/expr"
	"powerplay/internal/obs"
)

// incrementalPlays counts engine runs by mode: "incremental" (dirty
// cone only, possibly empty), "full" (no retained state or structural
// change), "fallback" (compile or run error; interpreter re-derived
// the result).
var incrementalPlays = obs.NewCounterVec("powerplay_sheet_incremental_plays_total",
	"Incremental Play engine runs, by mode (incremental, full, fallback).", "mode")

// dirtySlotBuckets spans one-cell edits (a handful of slots) up to
// whole-sheet recomputes.
var dirtySlotBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// dirtySlots records how many slots each incremental Play actually
// recomputed; mass near zero means edits stay cheap.
var dirtySlots = obs.NewHistogram("powerplay_sheet_dirty_slots",
	"Slots recomputed per incremental Play.", dirtySlotBuckets)

// wavefrontWidth tracks the widest dependency level of the most
// recently played plan: the parallelism a full recompute can exploit.
var wavefrontWidth = obs.NewGauge("powerplay_sheet_wavefront_width",
	"Widest dependency level of the most recently played plan.")

// PlayDelta describes what one incremental Play actually did — the
// changed-cell delta set a live-collaboration channel (SSE) will push
// to other viewers of the same sheet.
type PlayDelta struct {
	// Full reports a from-scratch evaluation (first Play, structural
	// change, or error fallback); the whole sheet should be considered
	// changed.
	Full bool
	// DirtySteps/TotalSteps count scheduled steps re-executed vs. the
	// plan's total; DirtySlots/TotalSlots the same for value slots.
	DirtySteps, TotalSteps int
	DirtySlots, TotalSlots int
	// ChangedRows lists the paths of rows whose displayed results were
	// recomputed this Play — model rows re-priced and hierarchy rows
	// whose aggregates moved — in schedule order ("" is the root).  Nil
	// when Full (everything changed) or when no row was touched.
	ChangedRows []string
	// WavefrontWidth is the played plan's widest dependency level.
	WavefrontWidth int
}

// Incremental is a Design's incremental Play engine: it retains the
// last evaluation's plan, slot vector and per-row outputs, and
// re-executes only the dirty cone on the next Play.  Obtain one with
// Design.IncrementalEngine; all methods are safe for concurrent use
// (Plays serialize on the engine), but the usual sheet rule applies —
// do not mutate the design tree while a Play is running.
type Incremental struct {
	mu      sync.Mutex
	d       *Design
	plan    *Plan
	run     *planRun
	gen     uint64 // design generation the retained plan reflects
	regGen  uint64
	res     *Result
	results []*Result // per plan-node Result; clean subtrees are shared across Plays

	// Reusable per-Play scratch (guarded by mu).
	dirty     []bool
	slotDirty []bool
}

// IncrementalEngine returns the design's incremental Play engine,
// creating it on first use.
func (d *Design) IncrementalEngine() *Incremental {
	if e := d.inc.Load(); e != nil {
		return e
	}
	d.inc.CompareAndSwap(nil, &Incremental{d: d})
	return d.inc.Load()
}

// invalidate drops all retained state; the next Play runs full.
// Caller holds mu.
func (e *Incremental) invalidate() {
	e.plan, e.run, e.res, e.results, e.gen, e.regGen = nil, nil, nil, nil, 0, 0
}

// Play evaluates the design — the Play button — recomputing only what
// the edits since the previous Play can have changed.  The Result is
// bit-identical to Design.Evaluate's; the PlayDelta reports the work
// done and the rows whose numbers may differ from last time.
//
// The returned Result tree is shared with the engine's retained state
// and with earlier callers when nothing was dirty: treat it as
// read-only, as with all evaluation results.
func (e *Incremental) Play() (*Result, PlayDelta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Fast path: when only cell bindings changed since the last Play,
	// patch the retained plan in place (see patch.go) — recompiling
	// just the edited expressions, keeping every slot assignment, step
	// and warmed row-model cache.  An unchanged design generation means
	// no tree edit at all, so the retained plan replays as-is (volatile
	// rows and registry moves still dirty themselves inside
	// playIncremental).  Anything the patcher cannot prove safe takes
	// the ordinary full-compile path below.
	if e.plan != nil && e.run != nil {
		gen := e.d.Generation()
		if gen == e.gen {
			return e.playIncremental(e.plan)
		}
		if np, ok := e.plan.patch(); ok {
			e.gen = gen
			return e.playIncremental(np)
		}
	}

	plan, err := e.d.PlanFor(nil)
	if err != nil {
		return e.fallback()
	}
	e.gen = e.d.Generation()
	if e.plan == nil || e.run == nil || (plan != e.plan && !congruent(e.plan, plan)) {
		return e.playFull(plan)
	}
	return e.playIncremental(plan)
}

// fallback abandons retained state and re-derives the result through
// the tree interpreter, reproducing the canonical error message.
// Caller holds mu.
func (e *Incremental) fallback() (*Result, PlayDelta, error) {
	e.invalidate()
	planFallbacks.Inc()
	incrementalPlays.With("fallback").Inc()
	r, err := e.d.evaluateInterpreted(nil)
	return r, PlayDelta{Full: true}, err
}

// playFull evaluates every step of the plan (wavefront-scheduled) and
// retains the run for the next Play.  Caller holds mu.
func (e *Incremental) playFull(plan *Plan) (*Result, PlayDelta, error) {
	run := plan.newRun()
	if err := plan.execLevels(nil, run, runtime.GOMAXPROCS(0), true); err != nil {
		return e.fallback()
	}
	e.plan, e.run, e.regGen = plan, run, e.d.Registry.Generation()
	e.results = plan.buildResults(run)
	e.res = e.results[plan.rootIdx]
	incrementalPlays.With("full").Inc()
	dirtySlots.Observe(float64(plan.slotCount))
	wavefrontWidth.Set(float64(plan.WavefrontWidth()))
	return e.res, PlayDelta{
		Full:           true,
		DirtySteps:     len(plan.steps),
		TotalSteps:     len(plan.steps),
		DirtySlots:     plan.slotCount,
		TotalSlots:     plan.slotCount,
		WavefrontWidth: plan.WavefrontWidth(),
	}, nil
}

// playIncremental diffs the (congruent) new plan against the retained
// one, propagates dirtiness, and re-executes only the dirty cone over
// the retained slot vector.  Caller holds mu.
func (e *Incremental) playIncremental(plan *Plan) (*Result, PlayDelta, error) {
	run := e.run
	regGen := e.d.Registry.Generation()

	// Seed self-dirty steps: edited cells (expression identity moved),
	// every model row when the registry generation moved (a
	// re-registered model may answer differently for any row), and
	// volatile rows always (their answers may change with no edit at
	// all — the reason Play's contract is "recompute now").
	if e.dirty == nil || len(e.dirty) < len(plan.steps) {
		e.dirty = make([]bool, len(plan.steps))
	}
	if e.slotDirty == nil || len(e.slotDirty) < plan.slotCount {
		e.slotDirty = make([]bool, plan.slotCount)
	}
	dirty, slotDirty := e.dirty[:len(plan.steps)], e.slotDirty[:plan.slotCount]
	clear(dirty)
	clear(slotDirty)
	regMoved := regGen != e.regGen
	if plan != e.plan {
		old := e.plan.steps
		for i, st := range plan.steps {
			if st.kind == stepExpr && st != old[i] && st.exprID != old[i].exprID {
				dirty[i] = true
			}
		}
	}
	if regMoved {
		for i, st := range plan.steps {
			if st.kind == stepNode && st.modelName != "" {
				dirty[i] = true
			}
		}
	} else {
		// Volatile rows re-price on every Play; the scan behind the
		// list hits the registry, so it is cached per generation.
		if !plan.volOK || plan.volGen != regGen {
			plan.volSteps = plan.volSteps[:0]
			for i, st := range plan.steps {
				if st.kind == stepNode && plan.stepVolatile(st) {
					plan.volSteps = append(plan.volSteps, i)
				}
			}
			plan.volGen, plan.volOK = regGen, true
		}
		for _, i := range plan.volSteps {
			dirty[i] = true
		}
	}

	// Propagate: a step reading a dirty slot is dirty; a dirty step's
	// written slots are dirty.  Schedule order makes one pass complete.
	dirtySteps, dirtySlotCount := 0, 0
	var changedRows []string
	var dirtyNodes []int
	for i, st := range plan.steps {
		if !dirty[i] {
			st.forEachRead(func(s int) {
				if slotDirty[s] {
					dirty[i] = true
				}
			})
		}
		if !dirty[i] {
			continue
		}
		dirtySteps++
		st.forEachWrite(func(s int) {
			if !slotDirty[s] {
				slotDirty[s] = true
				dirtySlotCount++
			}
		})
		if st.kind == stepNode {
			changedRows = append(changedRows, plan.nodePaths[st.nodeIdx])
			dirtyNodes = append(dirtyNodes, st.nodeIdx)
			// Force a fresh parameter-map fill: a populated map skips
			// its invariant entries, but under the adopted plan those
			// entries may be exactly what the edit changed.
			run.fulls[st.nodeIdx] = nil
		}
	}

	delta := PlayDelta{
		DirtySteps:     dirtySteps,
		TotalSteps:     len(plan.steps),
		DirtySlots:     dirtySlotCount,
		TotalSlots:     plan.slotCount,
		ChangedRows:    changedRows,
		WavefrontWidth: plan.WavefrontWidth(),
	}
	incrementalPlays.With("incremental").Inc()
	dirtySlots.Observe(float64(dirtySlotCount))
	wavefrontWidth.Set(float64(plan.WavefrontWidth()))

	if dirtySteps == 0 {
		e.plan, e.regGen = plan, regGen
		return e.res, delta, nil
	}
	if err := plan.execLevels(dirty, run, runtime.GOMAXPROCS(0), true); err != nil {
		return e.fallback()
	}
	e.plan, e.regGen = plan, regGen
	// Rebuild only the dirty rows' Results (children before parents —
	// dirtyNodes is in schedule order); clean subtrees are shared with
	// the previous Play's tree, which is immutable once built.
	for _, idx := range dirtyNodes {
		e.results[idx] = plan.buildResultAt(run, idx, e.results)
	}
	e.res = e.results[plan.rootIdx]
	return e.res, delta, nil
}

// congruent reports whether two plans share an identical schedule
// skeleton — same slot layout, same step shapes, same rows in the same
// order — differing at most in which expressions the steps compute.
// Congruence is what lets the new plan adopt the old plan's run: every
// clean step then provably recomputes the retained value into the
// retained slot.
func congruent(a, b *Plan) bool {
	if a.slotCount != b.slotCount || a.rootIdx != b.rootIdx ||
		len(a.steps) != len(b.steps) || len(a.nodes) != len(b.nodes) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] || a.nodeBase[i] != b.nodeBase[i] {
			return false
		}
	}
	for i := range a.steps {
		sa, sb := a.steps[i], b.steps[i]
		if sa.kind != sb.kind {
			return false
		}
		if sa.kind == stepExpr {
			if sa.dst != sb.dst || !equalInts(sa.prog.Slots(), sb.prog.Slots()) {
				return false
			}
			continue
		}
		if sa.node != sb.node || sa.nodeIdx != sb.nodeIdx || sa.base != sb.base ||
			sa.modelName != sb.modelName || sa.compose != sb.compose ||
			!equalStrings(sa.paramNames, sb.paramNames) ||
			!equalInts(sa.paramSlots, sb.paramSlots) ||
			!equalStrings(sa.stdNames, sb.stdNames) ||
			!equalInts(sa.stdSlots, sb.stdSlots) ||
			!equalInts(sa.childBases, sb.childBases) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Wavefront execution

// minParallelLevel is the smallest level worth fanning out; below it
// goroutine handoff costs more than the steps.
const minParallelLevel = 4

// execLevels runs the scheduled steps whose include bit is set (nil
// means all), level by level: steps within one wavefront level read
// only slots finalized at shallower levels and write disjoint slots
// (and disjoint per-row entries of run), so a level's steps execute
// concurrently across up to `workers` goroutines, each with its own
// expression scratch.  A barrier separates levels.  On error the
// lowest-indexed failing step wins, execution stops after its level,
// and the run's state must be considered poisoned — callers fall back
// to a fresh evaluation, exactly as they do for any plan error.
func (p *Plan) execLevels(include []bool, run *planRun, workers int, keep bool) error {
	p.levels()
	var buf []int
	for _, bucket := range p.byLevel {
		buf = buf[:0]
		for _, si := range bucket {
			if include == nil || include[si] {
				buf = append(buf, si)
			}
		}
		if len(buf) == 0 {
			continue
		}
		if workers <= 1 || len(buf) < minParallelLevel {
			for _, si := range buf {
				if err := p.execStep(p.steps[si], run.slots, run, keep); err != nil {
					return err
				}
			}
			continue
		}
		n := workers
		if n > len(buf) {
			n = len(buf)
		}
		var (
			next     atomic.Int64
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
			firstIdx int
		)
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch expr.Scratch
				for {
					i := int(next.Add(1)) - 1
					if i >= len(buf) {
						return
					}
					si := buf[i]
					if err := p.execStepScratch(p.steps[si], run.slots, run, &scratch, keep); err != nil {
						errMu.Lock()
						if firstErr == nil || si < firstIdx {
							firstErr, firstIdx = err, si
						}
						errMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}
