package sheet

// Columnar plan execution.
//
// A BatchEval replays the override-dependent cone of a compiled plan
// once per *chunk* of sweep points, over a baseline that executed the
// invariant steps once, with every slot of the plan widened to a
// []float64 column.  Expression steps run through
// expr.Program.RunBatch (tight per-operator loops), model rows with a
// closed sweep form run through model.SweepForm.EvalCols (no Estimate
// allocation, no parameter map, DelayScale memoized per vdd column),
// and the remaining work — non-batchable programs, models without a
// sweep form — degrades gracefully to per-point execution inside the
// chunk without giving up the columnar steps around it.
//
// Correctness contract, continuing the plan's: a Run that succeeds
// produces, for every point, values bit-identical to EvaluateTotals on
// that point (each columnar path replicates the scalar path's
// floating-point operations in order — see expr.RunBatch and
// model.SweepForm for their halves of the argument).  A Run that fails
// promises nothing about the points: the failure may be real, or it
// may come from a step no point's evaluation reads (a failing binding
// nothing uses, a conservative read of a failed invariant slot — see
// build), and its text and position are NOT canonical.  Callers must
// treat any Run error as "re-evaluate this chunk point by point
// through EvaluateTotals", which either succeeds or reproduces the
// canonical error at the canonical (lowest-indexed) point.  Batch
// errors are therefore never user-visible.
//
// A BatchEval is built once, over its plan's snapshot of the registry.
// A Run that ends after the registry moved returns an error, so the
// caller's scalar re-run prices the chunk through a fresh plan.

import (
	"context"
	"fmt"

	"powerplay/internal/core/model"
	"powerplay/internal/expr"
	"powerplay/internal/obs"
)

// sheetBatchSteps counts variant plan steps executed per chunk by the
// columnar executor, by path: "program" (columnar expression),
// "program_scalar" (per-point expression: control flow), "kernel"
// (model sweep form), "model_scalar" (per-point model evaluation).  A
// high scalar share means the sheet defeats the batch engine and
// explains a points/sec plateau.
var sheetBatchSteps = obs.NewCounterVec("powerplay_sheet_batch_steps_total",
	"Variant plan steps executed by the columnar sweep executor, by path.", "path")

// batch step kinds.
const (
	bExpr        uint8 = iota // batchable expression program
	bExprScalar               // expression with control flow: per-point Run
	bAgg                      // model-less row: child aggregation only
	bKernel                   // model with a sweep form: columnar kernel
	bModelScalar              // model without one: per-point Evaluate
)

// batchStep is one variant plan step prepared for columnar execution.
type batchStep struct {
	st   *planStep
	kind uint8

	// bKernel state.
	form model.SweepForm
	// vddCol and fCol supply the operating point to the kernel: plan
	// columns when the parameter is slot-bound, private constant
	// columns when defaulted.
	vddCol, fCol []float64
	// vddSlot >= 0 marks a sweep-variant vdd column whose DelayScale
	// column comes from the per-chunk memo; otherwise dsConst holds the
	// precomputed constant DelayScale column.  An untimed form reads
	// neither.
	vddSlot int
	dsConst []float64
}

// dsMemo is one per-chunk memoized DelayScale column.
type dsMemo struct {
	gen uint64
	col []float64
}

// BatchEval evaluates chunks of sweep points against a hoisted
// baseline, columnar wherever the plan allows.  It holds per-chunk
// mutable state and must not be used concurrently: a sweep takes one
// from NewBatchEval, owns it alone, and hands it back with Release.
type BatchEval struct {
	sw       *sweeper
	capacity int
	cols     [][]float64 // slot -> column; invariant slots broadcast baseline
	bsteps   []batchStep
	run      *planRun // scalar state for the per-point paths
	bscratch expr.BatchScratch
	buildErr error

	chunkGen uint64
	ds       map[int]*dsMemo // vdd slot -> DelayScale column memo
}

// NewBatchEval returns a columnar evaluation context over the plan's
// hoisted invariant baseline, able to evaluate up to capacity points
// per Run: the plan's spare when it holds one that large, a new one
// otherwise.  Repeated sweeps over an unchanged plan share the baseline
// (see sharedSweeper) and, through Release, its broadcast columns; the
// BatchEval itself must not be used concurrently.
func (p *Plan) NewBatchEval(capacity int) *BatchEval {
	sw := p.sharedSweeper()
	if b := sw.spare.Swap(nil); b != nil && b.capacity >= capacity {
		return b
	}
	return sw.newBatchEval(capacity)
}

// Release hands b back to its plan as the spare the next NewBatchEval
// takes, unless the plan already holds one; b must not be used after.
// A plan keeps at most one spare and drops it with the plan when an
// edit or a registry move retires it.  Plans with a volatile row keep
// none: each of their sweeps hoists a fresh baseline.  Runs leave the
// invariant columns as they found them, failed ones included, so a
// spare starts every Run from the same state a new BatchEval would.
func (b *BatchEval) Release() {
	if len(b.sw.plan.volSteps) == 0 {
		b.sw.spare.CompareAndSwap(nil, b)
	}
}

// newBatchEval builds a BatchEval over one baseline.
func (s *sweeper) newBatchEval(capacity int) *BatchEval {
	if capacity < 1 {
		capacity = 1
	}
	p := s.plan
	// The per-point sub-paths' slot vector starts at the baseline
	// (stored errors included); they refresh only the variant slots
	// they read.
	run := p.newRun()
	copy(run.slots, s.baseline)
	copy(run.errs, s.errs)
	b := &BatchEval{
		sw:       s,
		capacity: capacity,
		cols:     make([][]float64, p.slotCount),
		run:      run,
		ds:       make(map[int]*dsMemo),
	}
	// Only the slots a Run touches get a column: the override slots it
	// fills, the root totals it reads out, and every slot a variant step
	// reads or writes.  Invariant ones among them broadcast their
	// baseline value once here; variant ones are rewritten each Run by
	// the override fill and the variant steps.
	touched := make([]bool, p.slotCount)
	touch := func(slot int) { touched[slot] = true }
	for _, slot := range p.overrideSlots {
		touch(slot)
	}
	root := p.nodeBase[p.rootIdx]
	touch(root + slotPower)
	touch(root + slotArea)
	touch(root + slotDelay)
	for _, si := range p.variantSteps {
		p.steps[si].forEachRead(touch)
		p.steps[si].forEachWrite(touch)
	}
	for i, ok := range touched {
		if ok {
			b.cols[i] = b.constCol(s.baseline[i])
		}
	}
	b.build()
	return b
}

// constCol allocates a column holding one value.
func (b *BatchEval) constCol(v float64) []float64 {
	col := make([]float64, b.capacity)
	if v != 0 {
		for i := range col {
			col[i] = v
		}
	}
	return col
}

// invValue resolves an invariant parameter entry's (run-independent)
// value: a defaulted constant or a baseline slot.
func (b *BatchEval) invValue(en *paramEntry) float64 {
	if en.slot >= 0 {
		return b.sw.baseline[en.slot]
	}
	return en.def
}

// buildParams assembles the full validated parameter map the sweep-form
// kernels are built from: invariant entries carry their real values
// (checked, as the scalar path would on its first fill), variant ones a
// schema-default placeholder the form must not depend on.
func (b *BatchEval) buildParams(mc *rowModelCache) (model.Params, error) {
	full := make(model.Params, mc.size)
	for i := range mc.invEntries {
		en := &mc.invEntries[i]
		v := b.invValue(en)
		if en.param != nil {
			if err := en.param.Check(v); err != nil {
				return nil, err
			}
		}
		full[en.name] = v
	}
	for i := range mc.varEntries {
		en := &mc.varEntries[i]
		full[en.name] = en.def
	}
	return full, nil
}

// opCol resolves the column feeding an operating-point parameter (vdd
// or f) of a kernel row: the bound slot's column, a constant column for
// a defaulted parameter, or — matching Params' zero-for-missing
// semantics — a zero column when the model has no such parameter.  The
// second result is the slot index when the column is sweep-variant, -1
// when it is constant.
func (b *BatchEval) opCol(mc *rowModelCache, name string) ([]float64, int) {
	for i := range mc.varEntries {
		if en := &mc.varEntries[i]; en.name == name {
			return b.cols[en.slot], en.slot
		}
	}
	for i := range mc.invEntries {
		if en := &mc.invEntries[i]; en.name == name {
			if en.slot >= 0 {
				return b.cols[en.slot], -1
			}
			return b.constCol(en.def), -1
		}
	}
	return b.constCol(0), -1
}

// build prepares the variant steps for columnar execution.  A build
// failure poisons the BatchEval (Run returns the error) rather than one
// step: the caller's scalar fallback then reproduces the canonical
// failure.  Columns carry no errors, so reading a failed
// invariant slot — from a variant step that reads every slot it lists,
// or as the root totals — poisons the BatchEval too.  A control-flow
// program is exempt: it runs per point over b.run, which carries the
// baseline's stored errors, so it raises one only on a point whose
// branch reads it, as the scalar path does.
func (b *BatchEval) build() {
	p := b.sw.plan
	failedRead := func(s int) {
		if b.buildErr == nil && expr.IsFailed(b.sw.baseline[s]) {
			b.buildErr = b.sw.errs[s]
		}
	}
	failedRead(p.nodeBase[p.rootIdx])
	for _, si := range p.variantSteps {
		st := p.steps[si]
		if st.kind != stepExpr || st.prog.Batchable() {
			st.forEachRead(failedRead)
			if b.buildErr != nil {
				return
			}
		}
		bs := batchStep{st: st, vddSlot: -1}
		switch {
		case st.kind == stepExpr:
			if st.prog.Batchable() {
				bs.kind = bExpr
			} else {
				bs.kind = bExprScalar
			}
		case st.modelName == "":
			bs.kind = bAgg
		default:
			mc := st.mc
			if mc == nil {
				b.buildErr = fmt.Errorf("no model named %q in library", st.modelName)
				return
			}
			if mc.invalid != "" {
				b.buildErr = fmt.Errorf("unknown parameter %q", mc.invalid)
				return
			}
			bs.kind = bModelScalar
			// The kernel path needs the row's variant parameters to be
			// exactly the operating point (a swept structural parameter
			// — bit width, activity — changes the form itself) and the
			// model to export a closed form.
			opOnly := true
			for i := range mc.varEntries {
				if n := mc.varEntries[i].name; n != model.ParamVDD && n != model.ParamFreq {
					opOnly = false
					break
				}
			}
			if sf, isFormer := mc.m.(model.SweepFormer); isFormer && opOnly {
				full, err := b.buildParams(mc)
				if err != nil {
					b.buildErr = err
					return
				}
				if form, ok := sf.SweepForm(full); ok {
					bs.kind = bKernel
					bs.form = form
					bs.vddCol, bs.vddSlot = b.opCol(mc, model.ParamVDD)
					bs.fCol, _ = b.opCol(mc, model.ParamFreq)
					if bs.vddSlot < 0 && !form.Untimed {
						// Constant vdd (an f sweep): one DelayScale
						// evaluation serves the whole column for the
						// life of the eval.
						bs.dsConst = b.constCol(model.DelayScale(bs.vddCol[0]))
					}
				}
			}
		}
		b.bsteps = append(b.bsteps, bs)
	}
}

// dsCol returns the per-chunk DelayScale column for a variant vdd slot,
// computing it at most once per chunk regardless of how many rows read
// the same supply.
func (b *BatchEval) dsCol(slot, n int) []float64 {
	m := b.ds[slot]
	if m == nil {
		m = &dsMemo{col: make([]float64, b.capacity)}
		b.ds[slot] = m
	}
	if m.gen != b.chunkGen {
		model.DelayScaleCols(m.col, b.cols[slot], n)
		m.gen = b.chunkGen
	}
	return m.col
}

// aggregate folds the children's result columns into a row's, in child
// order, replicating execNode's per-point accumulation.
func (b *BatchEval) aggregate(st *planStep, n int) {
	for _, cb := range st.childBases {
		for o := slotPower; o <= slotArea; o++ {
			dst := b.cols[st.base+o][:n]
			src := b.cols[cb+o][:n]
			for j := range dst {
				dst[j] += src[j]
			}
		}
		dst := b.cols[st.base+slotDelay][:n]
		src := b.cols[cb+slotDelay][:n]
		if st.compose == ComposeChain {
			for j := range dst {
				dst[j] += src[j]
			}
		} else {
			for j := range dst {
				if src[j] > dst[j] {
					dst[j] = src[j]
				}
			}
		}
	}
}

// Run evaluates one chunk of len(pw) points and writes the design's
// root totals for point i to pw[i], area[i], delay[i].  values holds
// one column per override name of the plan, in sorted name order, and
// values[k][i] is that override's value at point i.  On success every
// value is bit-identical to EvaluateTotals on the same point; on error
// the caller must re-evaluate the chunk through EvaluateTotals (see
// the contract at the top of the file).
//
// Run honors ctx between steps and — on the per-point sub-paths, where
// a single model evaluation may be arbitrarily slow (remote models) —
// between points, returning ctx.Err() unwrapped; to a caller that is a
// batch error like any other, and the scalar re-run surfaces the
// canonical interruption message.  A registry move before or during
// the Run is an error too: the chunk was priced by a retired library.
func (b *BatchEval) Run(ctx context.Context, values [][]float64, pw, area, delay []float64) error {
	n := len(pw)
	if n == 0 {
		return nil
	}
	if n > b.capacity {
		return fmt.Errorf("sheet: batch of %d points exceeds capacity %d", n, b.capacity)
	}
	p := b.sw.plan
	if b.buildErr != nil {
		return b.buildErr
	}
	if len(values) > len(p.overrideNames) {
		return fmt.Errorf("sheet: %d override columns for %d override names", len(values), len(p.overrideNames))
	}
	b.chunkGen++
	for i, name := range p.overrideNames {
		if i >= len(values) {
			return fmt.Errorf("sweep point missing override %q", name)
		}
		if len(values[i]) < n {
			return fmt.Errorf("sheet: override column %q holds %d values, want %d", name, len(values[i]), n)
		}
		copy(b.cols[p.overrideSlots[i]][:n], values[i][:n])
	}
	for si := range b.bsteps {
		if err := ctx.Err(); err != nil {
			return err
		}
		bs := &b.bsteps[si]
		st := bs.st
		switch bs.kind {
		case bExpr:
			if err := st.prog.RunBatch(b.cols, b.cols[st.dst], n, &b.bscratch); err != nil {
				return err
			}
			sheetBatchSteps.With("program").Inc()

		case bExprScalar:
			slots := st.prog.Slots()
			for j := 0; j < n; j++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				for _, s := range slots {
					b.run.slots[s] = b.cols[s][j]
				}
				v, err := st.prog.Run(b.run.slots, b.run.errs, &b.run.scratch)
				if err != nil {
					return err
				}
				b.cols[st.dst][j] = v
			}
			sheetBatchSteps.With("program_scalar").Inc()

		case bAgg:
			for o := 0; o < nodeSlots; o++ {
				col := b.cols[st.base+o][:n]
				for j := range col {
					col[j] = 0
				}
			}
			b.aggregate(st, n)

		case bKernel:
			// Validation amortized per column: each variant operating-
			// point parameter is range-checked in one pass over its
			// column before any arithmetic runs.
			for i := range st.mc.varEntries {
				en := &st.mc.varEntries[i]
				if en.param == nil {
					continue
				}
				col := b.cols[en.slot][:n]
				for j := range col {
					if err := en.param.Check(col[j]); err != nil {
						return err
					}
				}
			}
			ds := bs.dsConst
			if ds == nil && !bs.form.Untimed {
				ds = b.dsCol(bs.vddSlot, n)
			}
			bs.form.EvalCols(bs.vddCol, bs.fCol, ds,
				b.cols[st.base+slotPower], b.cols[st.base+slotDynamic],
				b.cols[st.base+slotStatic], b.cols[st.base+slotArea],
				b.cols[st.base+slotDelay], n)
			b.aggregate(st, n)
			sheetBatchSteps.With("kernel").Inc()

		case bModelScalar:
			for j := 0; j < n; j++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				// The scalar path's validation reads the run's slots:
				// invariant ones hold the baseline, variant ones get
				// this point's values.
				for i := range st.mc.varEntries {
					slot := st.mc.varEntries[i].slot
					b.run.slots[slot] = b.cols[slot][j]
				}
				full, err := p.validate(st, b.run)
				if err != nil {
					return err
				}
				est, err := st.mc.m.Evaluate(full)
				if err != nil {
					return err
				}
				v, _ := modelValues(est)
				for o, x := range v {
					b.cols[st.base+o][j] = x
				}
			}
			b.aggregate(st, n)
			sheetBatchSteps.With("model_scalar").Inc()
		}
	}
	if !p.current() {
		return fmt.Errorf("sheet: model registry changed since the plan was compiled")
	}
	base := p.nodeBase[p.rootIdx]
	copy(pw[:n], b.cols[base+slotPower][:n])
	copy(area[:n], b.cols[base+slotArea][:n])
	copy(delay[:n], b.cols[base+slotDelay][:n])
	return nil
}
