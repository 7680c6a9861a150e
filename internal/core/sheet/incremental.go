package sheet

// Incremental Play: dirty-cone recompute over compiled plans.
//
// The interactive loop the paper centers on — edit a cell, hit Play,
// read the new power column — touches one binding at a time, yet a
// plain Evaluate re-runs every step of the plan.  The Incremental
// engine retains the last run's slot vector and patches the edited
// cells into the plan that produced it (see patch.go): expressions are
// immutable and rebinding a cell swaps pointers, so comparing step
// expression identities across the retained and patched plans yields
// exactly the edited cells.  Dirtiness then propagates through the
// same slot read/write sets the variance analysis uses, and only the
// dirty cone re-executes over the retained baseline.
//
// Correctness contract (the same one the compiled and batch paths are
// held to): an incremental Play returns values bit-identical to a
// from-scratch full evaluation, including NaN/Inf propagation and
// error text/positions.  The guarantees stack as follows —
//
//   - Clean steps' slots hold values a full run would recompute
//     identically: their expressions are unchanged, their inputs are
//     clean (dirtiness is closed under the conservative read sets),
//     and their models are the retained plan's snapshot of the
//     registry, pure functions of their parameters (volatile models —
//     remote proxies, macros over them — never count as clean).
//   - A registry move retires the retained plan: the next Play
//     compiles afresh against the current library and runs full.
//   - Any edit patch() cannot prove safe (a row or binding added,
//     removed or renamed, a reference needing a reordered schedule)
//     compiles afresh and forces a full run.
//   - Failures are values in the retained slots (see plan.go), so a
//     clean step that failed last time still holds its exact error,
//     and a dirty reader raises it just as a full run would.  A Play
//     whose root fails returns that error and drops the retained state.
//   - A design whose plan does not compile (a static cycle) evaluates
//     through the tree interpreter, exactly as Design.Evaluate does.
//
// Full recompute stays available: callers that distrust the diffing
// (or want the old cost model) simply keep using Design.Evaluate.

import (
	"sync"

	"powerplay/internal/obs"
)

// incrementalPlays counts engine runs by mode: "incremental" (dirty
// cone only, possibly empty), "full" (no retained state or structural
// change), "fallback" (the plan does not compile; the interpreter
// evaluated the design).
var incrementalPlays = obs.NewCounterVec("powerplay_sheet_incremental_plays_total",
	"Incremental Play engine runs, by mode (incremental, full, fallback: plan does not compile).", "mode")

// dirtySlotBuckets spans one-cell edits (a handful of slots) up to
// whole-sheet recomputes.
var dirtySlotBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// dirtySlots records how many slots each incremental Play actually
// recomputed; mass near zero means edits stay cheap.
var dirtySlots = obs.NewHistogram("powerplay_sheet_dirty_slots",
	"Slots recomputed per incremental Play.", dirtySlotBuckets)

// PlayDelta describes how much work one incremental Play did: whether
// it ran from scratch, and how many steps and slots it re-executed.
type PlayDelta struct {
	// Full reports a from-scratch evaluation (first Play, structural
	// change, registry move, failed Play, or a plan that does not
	// compile); the whole sheet should be considered changed.
	Full bool
	// DirtySteps/TotalSteps count scheduled steps re-executed vs. the
	// plan's total; DirtySlots/TotalSlots the same for value slots.
	DirtySteps, TotalSteps int
	DirtySlots, TotalSlots int
}

// Incremental is a Design's incremental Play engine: it retains the
// last evaluation's plan, slot vector and per-row outputs, and
// re-executes only the dirty cone on the next Play.  The retained plan
// is reused only while its registry generation is current; after a
// model is (un)registered the next Play compiles and runs full.
// Obtain one with Design.IncrementalEngine; all methods are safe for
// concurrent use (Plays serialize on the engine), but the usual sheet
// rule applies — do not mutate the design tree while a Play is
// running.
type Incremental struct {
	mu      sync.Mutex
	d       *Design
	plan    *Plan
	run     *planRun
	gen     uint64 // design generation the retained plan reflects
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
	e.plan, e.run, e.res, e.results, e.gen = nil, nil, nil, nil, 0
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
	// and row-model cache.  An unchanged design generation means no
	// tree edit at all, so the retained plan replays as-is (volatile
	// rows still dirty themselves inside playIncremental).  A registry
	// move, or anything the patcher cannot prove safe, compiles afresh
	// and plays full.
	if e.plan != nil && e.run != nil && e.plan.current() {
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
		e.invalidate()
		incrementalPlays.With("fallback").Inc()
		r, _, _, _, err := e.d.evaluate(nil, true)
		return r, PlayDelta{Full: true}, err
	}
	e.gen = e.d.Generation()
	return e.playFull(plan)
}

// playFull evaluates every step of the plan and retains the run for
// the next Play.  Caller holds mu.
func (e *Incremental) playFull(plan *Plan) (*Result, PlayDelta, error) {
	run := plan.newRun()
	incrementalPlays.With("full").Inc()
	if err := plan.exec(nil, run, true); err != nil {
		e.invalidate()
		return nil, PlayDelta{Full: true}, err
	}
	e.plan, e.run = plan, run
	e.results = plan.buildResults(run)
	e.res = e.results[plan.rootIdx]
	dirtySlots.Observe(float64(plan.slotCount))
	return e.res, PlayDelta{
		Full:       true,
		DirtySteps: len(plan.steps),
		TotalSteps: len(plan.steps),
		DirtySlots: plan.slotCount,
		TotalSlots: plan.slotCount,
	}, nil
}

// playIncremental diffs plan — the retained plan or its patched copy —
// against the retained one, propagates dirtiness, and re-executes only
// the dirty cone over the retained slot vector.  Caller holds mu.
func (e *Incremental) playIncremental(plan *Plan) (*Result, PlayDelta, error) {
	run := e.run

	// Seed self-dirty steps: edited cells (expression identity moved)
	// and volatile rows always (their answers may change with no edit
	// at all — the reason Play's contract is "recompute now").
	if e.dirty == nil || len(e.dirty) < len(plan.steps) {
		e.dirty = make([]bool, len(plan.steps))
	}
	if e.slotDirty == nil || len(e.slotDirty) < plan.slotCount {
		e.slotDirty = make([]bool, plan.slotCount)
	}
	dirty, slotDirty := e.dirty[:len(plan.steps)], e.slotDirty[:plan.slotCount]
	clear(dirty)
	clear(slotDirty)
	if plan != e.plan {
		// patch() shares every step it did not recompile.
		old := e.plan.steps
		for i, st := range plan.steps {
			dirty[i] = st != old[i]
		}
	}
	for _, i := range plan.volSteps {
		dirty[i] = true
	}

	// Propagate: a step reading a dirty slot is dirty; a dirty step's
	// written slots are dirty.  Schedule order makes one pass complete.
	dirtySteps, dirtySlotCount := 0, 0
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
			dirtyNodes = append(dirtyNodes, st.nodeIdx)
			// Force a fresh parameter-map fill: a populated map skips
			// its invariant entries, but under the adopted plan those
			// entries may be exactly what the edit changed.
			run.fulls[st.nodeIdx] = nil
		}
	}

	delta := PlayDelta{
		DirtySteps: dirtySteps,
		TotalSteps: len(plan.steps),
		DirtySlots: dirtySlotCount,
		TotalSlots: plan.slotCount,
	}
	incrementalPlays.With("incremental").Inc()
	dirtySlots.Observe(float64(dirtySlotCount))

	if dirtySteps == 0 {
		e.plan = plan
		return e.res, delta, nil
	}
	if err := plan.exec(dirty, run, true); err != nil {
		e.invalidate()
		return nil, PlayDelta{Full: true}, err
	}
	e.plan = plan
	// Rebuild only the dirty rows' Results (children before parents —
	// dirtyNodes is in schedule order); clean subtrees are shared with
	// the previous Play's tree, which is immutable once built.
	for _, idx := range dirtyNodes {
		e.results[idx] = plan.buildResultAt(run, idx, e.results)
	}
	e.res = e.results[plan.rootIdx]
	return e.res, delta, nil
}
