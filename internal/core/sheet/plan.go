package sheet

// Compiled evaluation plans.
//
// A Plan is the sheet-level half of the compiled evaluation pipeline
// (the expression half lives in internal/expr/program.go): one walk of
// the design assigns every reachable global and parameter binding a
// slot in a flat float64 vector, compiles each binding to a slot-
// resolved expr.Program, and topologically orders the work so that a
// whole evaluation is a linear pass over precompiled steps — no scope
// chains, no map lookups, no AST walks.  power("row")/area/delay call
// sites lower to reads of the target row's result slots, which the
// plan guarantees are computed first; the cycle detection mirrors the
// interpreter's two rules (variable cycles and row cycles) with the
// same error text.
//
// Correctness contract: a Plan execution produces values bit-identical
// to the tree interpreter (the programs replicate the interpreter's
// operations exactly, and the step graph evaluates a superset of what
// the interpreter would touch, in a compatible order), and the same
// error.  Errors are values: a failed step stores the interpreter's
// error for its binding or row in the slots it writes, and a reader
// raises it only if it actually reads the slot — in its own evaluation
// order, wrapped as the interpreter wraps it (see execStep).  With no
// cycles each binding and row is evaluated once and is pure, so its
// outcome does not depend on who reads it first; lazily unused
// failures therefore stay silent exactly as in the interpreter.  The
// one thing a plan cannot reproduce is a cycle's error, which names
// whichever binding the interpreter's dynamic walk entered first:
// designs with a static cycle (possibly a false positive behind an
// untaken branch) do not compile and evaluate through the interpreter.
//
// Sweep-invariant hoisting: the plan statically splits its steps into
// the cone that depends (transitively) on the override slots and the
// invariant remainder.  The columnar engine (batch.go) executes the
// invariant steps once into a baseline slot vector and replays only
// the variant cone per chunk; per-point evaluation always runs the
// whole plan (EvaluateTotals).

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"powerplay/internal/core/model"
	"powerplay/internal/expr"
	"powerplay/internal/obs"
	"powerplay/internal/units"
)

// planCompiles counts whole-plan compilations by outcome; a high "err"
// rate means designs keep hitting the interpreter-only path (static
// cycles) and the compiled pipeline is not paying for itself.
var planCompiles = obs.NewCounterVec("powerplay_sheet_plan_compiles_total",
	"Design evaluation plans compiled, by outcome.", "result")

// planEntry caches one compile outcome (failures are cached too, so a
// sheet the compiler cannot handle pays the analysis once, not per
// evaluation).
type planEntry struct {
	plan *Plan
	err  error
}

// maxCachedPlans bounds the per-design plan cache; the key space is
// override-name *sets*, which sweeps reuse heavily, but web input could
// mint unboundedly many.
const maxCachedPlans = 64

// overrideNames returns the sorted name set of an override map: the
// plan-cache key component.
func overrideNames(ov map[string]float64) []string {
	if len(ov) == 0 {
		return nil
	}
	names := make([]string, 0, len(ov))
	for k := range ov {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// PlanFor returns the design's compiled evaluation plan for the given
// override-name set (sorted; nil for plain Evaluate), compiling it on
// first use and caching it on the Design.  The cache is keyed on the
// root's identity, its mutation epoch and the registry generation:
// every tree mutator bumps the epoch and every Register/Unregister the
// generation, so callers never observe a stale plan (recovery's
// AdoptGeneration runs before a design serves, see its doc).
// Concurrent callers share one cached Plan; Plan execution is itself
// concurrency-safe.
func (d *Design) PlanFor(names []string) (*Plan, error) {
	if !sort.StringsAreSorted(names) {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	key := strings.Join(names, "\x00")
	d.planMu.Lock()
	defer d.planMu.Unlock()
	epoch := d.Root.epoch.Load()
	// Read before compiling resolves any model: a registration racing
	// the compile leaves the new plan already stale, never silently
	// mixed.
	regGen := d.Registry.Generation()
	if d.plans == nil || d.planRoot != d.Root || d.planEpoch != epoch || d.planRegGen != regGen || len(d.plans) > maxCachedPlans {
		d.plans = make(map[string]*planEntry)
		d.planRoot, d.planEpoch, d.planRegGen = d.Root, epoch, regGen
	}
	if e, ok := d.plans[key]; ok {
		return e.plan, e.err
	}
	plan, err := compilePlan(d, names, regGen)
	if err == nil {
		planCompiles.With("ok").Inc()
	} else {
		planCompiles.With("err").Inc()
	}
	d.plans[key] = &planEntry{plan: plan, err: err}
	return plan, err
}

// Plan is a compiled evaluation schedule for one design, one
// override-name set and one registry generation: a snapshot.  Every
// model row is resolved once, at compile, so a plan keeps pricing the
// models it was compiled against; current reports whether the registry
// has moved since.  It is immutable after compilation and safe for
// concurrent evaluation.
type Plan struct {
	design        *Design
	regGen        uint64 // registry generation read before any model resolved
	overrideNames []string
	overrideSlots []int
	slotCount     int
	steps         []*planStep
	isVariant     []bool // per step: depends on an override slot
	variantSteps  []int  // indices of variant steps, in schedule order
	variantSlot   []bool // per slot: an override writes it, transitively
	nodes         []*Node
	nodeBase      []int
	idxOf         map[*Node]int
	rootIdx       int
	pool          sync.Pool // *planRun

	// Patch metadata (see patch.go): what the tree looked like at
	// compile time, so a binding-only edit can be patched into a
	// retained plan without a whole-sheet recompile.
	globalSlot  map[globalKey]int // slot of every reachable global
	nodeStep    []int             // per node index: index of its stepNode
	globalNames [][]string        // per node index: global names at compile
	writers     []int             // per slot: writing step index; lazy, engine-mu guarded

	// volSteps lists the steps whose row resolved to a volatile model
	// (see model.Volatile); patching carries it over since stepNode
	// steps are shared.
	volSteps []int

	// swMemo caches the hoisted invariant baseline, so repeated sweeps
	// over one plan skip re-executing the invariant steps (see
	// sharedSweeper).
	swMemo atomic.Pointer[sweeper]
}

// current reports whether the plan still reflects the registry: false
// once any model was registered or unregistered after its compile.
func (p *Plan) current() bool { return p.regGen == p.design.Registry.Generation() }

// planStep is one unit of scheduled work: either "run a compiled
// binding into a slot" or "evaluate and aggregate one row".
type planStep struct {
	kind stepKind
	node *Node // the row, or the node owning the binding

	// stepExpr
	prog  *expr.Program
	dst   int
	name  string // binding name
	param bool   // row parameter (else global)
	// exprID is the identity of the source expression the program was
	// compiled from.  Expressions are immutable and rebinding a cell
	// swaps the pointer, so comparing it with the cell's current
	// expression detects exactly the edited cells (see patch.go).
	exprID uint64

	// stepNode
	nodeIdx    int
	base       int // 5 result slots: power, dynamic, static, area, delay
	modelName  string
	paramNames []string
	paramSlots []int
	stdNames   []string // inherited vdd/f/tech, when in scope and unbound
	stdSlots   []int
	childBases []int
	compose    Compose
	mc         *rowModelCache // nil: the model was not in the registry at compile
}

type stepKind uint8

const (
	stepExpr stepKind = iota
	stepNode
)

// rowModelCache pins the resolved model, the registry's schema for it
// (shared, never copied), and the row's precomputed validation
// schedule; it is built at compile and lives exactly as long as the
// plan.  The schedule is split by slot variance: between evaluations
// of one plan, invariant entries always reproduce the same value (their
// slots are written by deterministic invariant steps, or are
// constants), so a re-fill of an already-populated map only rewrites
// varEntries.
type rowModelCache struct {
	m          model.Model
	schema     *model.Schema
	varEntries []paramEntry // bound to override-dependent slots
	invEntries []paramEntry // invariant slots and schema defaults
	size       int
	invalid    string // a bound name Validate would reject; "" when fine
}

// paramEntry is one precomputed element of a row's validated parameter
// map: a schema parameter (bound to a slot, or defaulted) or a
// passed-through conventional parameter.  The sequence reproduces what
// Schema.Validate builds, without the intermediate map.
type paramEntry struct {
	name  string
	slot  int          // -1: use def
	def   float64      // the schema default (0 when not in the schema)
	param *model.Param // the bound schema parameter to check; nil: unchecked
}

// buildRowModelCache precomputes a row's validation schedule against
// its model's schema from the step's bound/inherited slots, split by
// the plan's slot-variance map.
func buildRowModelCache(st *planStep, m model.Model, schema *model.Schema, variantSlot []bool) *rowModelCache {
	mc := &rowModelCache{m: m, schema: schema}
	put := func(en paramEntry) {
		mc.size++
		if en.slot >= 0 && variantSlot[en.slot] {
			mc.varEntries = append(mc.varEntries, en)
		} else {
			mc.invEntries = append(mc.invEntries, en)
		}
	}
	bound := make(map[string]bool, len(st.paramNames)+len(st.stdNames))
	add := func(name string, slot int) {
		bound[name] = true
		if p, ok := schema.Lookup(name); ok {
			put(paramEntry{name: name, slot: slot, def: p.Default, param: p})
			return
		}
		switch name {
		case model.ParamVDD, model.ParamFreq, model.ParamTech:
			put(paramEntry{name: name, slot: slot})
		default:
			if mc.invalid == "" {
				mc.invalid = name
			}
		}
	}
	for i, name := range st.paramNames {
		add(name, st.paramSlots[i])
	}
	for i, name := range st.stdNames {
		add(name, st.stdSlots[i])
	}
	for _, p := range schema.Params() {
		if !bound[p.Name] {
			put(paramEntry{name: p.Name, slot: -1, def: p.Default})
		}
	}
	return mc
}

// Node result slot offsets within a row's 5-slot block.
const (
	slotPower = iota
	slotDynamic
	slotStatic
	slotArea
	slotDelay
	nodeSlots
)

// modelValues returns a model row's five result values, indexed
// slotPower..slotDelay, and its energy per operation, from one
// reduction pass over its estimate (model.Estimate.Totals).  The plan,
// the batch executor's per-point rows and the interpreter all price a
// model row through it.
func modelValues(est *model.Estimate) (v [nodeSlots]float64, energy units.Joules) {
	pw, dyn, static, energy := est.Totals()
	return [nodeSlots]float64{float64(pw), float64(dyn), float64(static), float64(est.Area), float64(est.Delay)}, energy
}

// planRun is pooled (or per-evaluator) mutable execution state.  A step
// that fails writes expr.Failed into its slots and its error into errs
// at the same indices; readers raise it (see planRun.err).  ests and
// params hold per-row outputs when the caller keeps results; fulls are
// reusable per-row validated-parameter maps that never escape a run.
// A full map is stored once its invariant entries hold their final
// values, so re-evaluations overwrite only the variant entries in
// place (see validate); nil means not yet populated.
type planRun struct {
	slots   []float64
	errs    []error
	scratch expr.Scratch
	ests    []*model.Estimate
	params  []model.Params
	fulls   []model.Params
}

// newRun allocates execution state sized to the plan.
func (p *Plan) newRun() *planRun {
	return &planRun{
		slots:  make([]float64, p.slotCount),
		errs:   make([]error, p.slotCount),
		ests:   make([]*model.Estimate, len(p.nodes)),
		params: make([]model.Params, len(p.nodes)),
		fulls:  make([]model.Params, len(p.nodes)),
	}
}

// err returns the error stored for a slot, or nil when it holds a value.
func (run *planRun) err(slot int) error {
	if expr.IsFailed(run.slots[slot]) {
		return run.errs[slot]
	}
	return nil
}

// execStep runs one step.  A failure is stored, not returned: the
// step's slots become expr.Failed and carry the error the interpreter
// would raise for that binding or row, so a reader raises it only if
// it actually reads the slot.
func (p *Plan) execStep(st *planStep, run *planRun, keep bool) {
	if st.kind == stepExpr {
		v, err := st.prog.Run(run.slots, run.errs, &run.scratch)
		if err != nil {
			run.slots[st.dst], run.errs[st.dst] = expr.Failed, st.cellErr(err)
			return
		}
		run.slots[st.dst] = v
		return
	}
	if err := p.execNode(st, run, keep); err != nil {
		for o := 0; o < nodeSlots; o++ {
			run.slots[st.base+o], run.errs[st.base+o] = expr.Failed, err
		}
	}
}

// cellErr words a binding's failure as the interpreter does: a failed
// global read passes through unchanged, anything else is attributed to
// the binding.
func (st *planStep) cellErr(err error) error {
	if ee, ok := err.(*EvalError); ok {
		return ee
	}
	what := "variable"
	if st.param {
		what = "param"
	}
	return &EvalError{Path: st.node.Path(), Msg: fmt.Sprintf("%s %q: %v", what, st.name, err)}
}

// execNode evaluates and aggregates one row, checking its inputs in the
// interpreter's order: the model lookup, the parameters in binding
// order, the inherited vdd/f/tech, the model itself, then the children.
func (p *Plan) execNode(st *planStep, run *planRun, keep bool) error {
	slots := run.slots
	var v [nodeSlots]float64
	if st.modelName != "" {
		if st.mc == nil {
			return &EvalError{Path: st.node.Path(), Msg: fmt.Sprintf("no model named %q in library", st.modelName)}
		}
		m := st.mc.m
		for _, s := range st.paramSlots {
			if err := run.err(s); err != nil {
				return err
			}
		}
		for _, s := range st.stdSlots {
			if err := run.err(s); err != nil {
				return err
			}
		}
		var est *model.Estimate
		full, err := p.validate(st, run)
		if err != nil {
			// Let the interpreter's own call word the failure (schema
			// order, unknown names last, the model-name prefix).
			est, err = st.mc.schema.Evaluate(m, st.boundParams(slots))
		} else if est, err = m.Evaluate(full); err != nil {
			err = fmt.Errorf("%s: %w", st.modelName, err) // the registered Info().Name
		}
		if err != nil {
			return &EvalError{Path: st.node.Path(), Msg: err.Error(), Err: err}
		}
		if keep {
			run.ests[st.nodeIdx] = est
			run.params[st.nodeIdx] = st.boundParams(slots)
		}
		v, _ = modelValues(est)
	}
	for _, cb := range st.childBases {
		if err := run.err(cb); err != nil {
			return err
		}
		for o := slotPower; o <= slotArea; o++ {
			v[o] += slots[cb+o]
		}
		if st.compose == ComposeChain {
			v[slotDelay] += slots[cb+slotDelay]
		} else if slots[cb+slotDelay] > v[slotDelay] {
			v[slotDelay] = slots[cb+slotDelay]
		}
	}
	copy(slots[st.base:st.base+nodeSlots], v[:])
	return nil
}

// validate fills the row's reusable validated-parameter map from its
// precomputed schedule.  A populated map's invariant entries hold their
// final values — they are written by deterministic invariant steps or
// are schema constants — so only the variant entries are rewritten.
// Any error means only "validation fails"; its wording is not
// canonical.
func (p *Plan) validate(st *planStep, run *planRun) (model.Params, error) {
	mc := st.mc
	if mc.invalid != "" {
		return nil, fmt.Errorf("unknown parameter %q", mc.invalid)
	}
	slots := run.slots
	full := run.fulls[st.nodeIdx]
	if full == nil {
		full = make(model.Params, mc.size)
		for i := range mc.invEntries {
			en := &mc.invEntries[i]
			v := en.def
			if en.slot >= 0 {
				v = slots[en.slot]
			}
			if en.param != nil {
				if err := en.param.Check(v); err != nil {
					return nil, err
				}
			}
			full[en.name] = v
		}
		run.fulls[st.nodeIdx] = full
	}
	for i := range mc.varEntries {
		en := &mc.varEntries[i]
		v := slots[en.slot]
		if en.param != nil {
			if err := en.param.Check(v); err != nil {
				return nil, err
			}
		}
		full[en.name] = v
	}
	return full, nil
}

// boundParams is the row's parameter map as the interpreter builds it:
// its own bindings plus the inherited vdd/f/tech.
func (st *planStep) boundParams(slots []float64) model.Params {
	params := make(model.Params, len(st.paramNames)+3)
	for i, name := range st.paramNames {
		params[name] = slots[st.paramSlots[i]]
	}
	for i, name := range st.stdNames {
		params[name] = slots[st.stdSlots[i]]
	}
	return params
}

// exec is the plan's one executor: it walks the schedule in order,
// running the steps whose include bit is set (nil means all), and
// returns the root row's error, if it failed.
func (p *Plan) exec(include []bool, run *planRun, keep bool) error {
	for i, st := range p.steps {
		if include == nil || include[i] {
			p.execStep(st, run, keep)
		}
	}
	return run.err(p.nodeBase[p.rootIdx])
}

// evalAt runs every step at one override point in a pooled run and
// returns the root totals, plus the Result tree when keep is set.
func (p *Plan) evalAt(overrides map[string]float64, keep bool) (r *Result, power, area, delay float64, err error) {
	run, _ := p.pool.Get().(*planRun)
	if run == nil {
		run = p.newRun()
	}
	defer p.pool.Put(run)
	for i, name := range p.overrideNames {
		run.slots[p.overrideSlots[i]] = overrides[name]
	}
	if err := p.exec(nil, run, keep); err != nil {
		return nil, 0, 0, 0, err
	}
	if keep {
		r = p.buildResults(run)[p.rootIdx]
	}
	base := p.nodeBase[p.rootIdx]
	return r, run.slots[base+slotPower], run.slots[base+slotArea], run.slots[base+slotDelay], nil
}

// buildResultAt builds one node's Result, taking the children's
// Results from a per-node table the caller keeps current.  Result
// trees are never mutated after construction (each exec allocates
// fresh estimates and parameter maps), so the incremental engine
// shares clean subtrees across Plays and rebuilds only dirty rows.
func (p *Plan) buildResultAt(run *planRun, idx int, results []*Result) *Result {
	n := p.nodes[idx]
	base := p.nodeBase[idx]
	s := run.slots
	r := &Result{
		Node:         n,
		Power:        units.Watts(s[base+slotPower]),
		DynamicPower: units.Watts(s[base+slotDynamic]),
		StaticPower:  units.Watts(s[base+slotStatic]),
		Area:         units.SquareMeters(s[base+slotArea]),
		Delay:        units.Seconds(s[base+slotDelay]),
	}
	if n.Model != "" {
		est := run.ests[idx]
		r.Estimate = est
		r.Params = run.params[idx]
		r.EnergyPerOp = est.EnergyPerOp()
	}
	if len(n.Children) > 0 {
		r.Children = make([]*Result, len(n.Children))
		for i, c := range n.Children {
			r.Children[i] = results[p.idxOf[c]]
		}
	}
	return r
}

// buildResults builds the whole Result forest in schedule order
// (children before parents) and returns the per-node table.
func (p *Plan) buildResults(run *planRun) []*Result {
	results := make([]*Result, len(p.nodes))
	for _, st := range p.steps {
		if st.kind == stepNode {
			results[st.nodeIdx] = p.buildResultAt(run, st.nodeIdx, results)
		}
	}
	return results
}

// sweeper snapshots the sweep-invariant portion of a plan: every step
// that cannot depend on the override slots is executed once, and the
// resulting slot vector (failures included) becomes the baseline each
// BatchEval starts from.  A sweeper is immutable apart from its
// atomically swapped spare, and safe to share; per-sweep mutable state
// lives in the BatchEval a sweep holds.
type sweeper struct {
	plan     *Plan
	baseline []float64
	errs     []error
	// spare is the BatchEval a finished sweep handed back (see
	// BatchEval.Release): its invariant columns already hold the
	// broadcast baseline.
	spare atomic.Pointer[BatchEval]
}

// newSweeper hoists and executes the invariant steps.  A failing
// invariant binding is stored in the baseline like any other outcome;
// a point raises it only if its evaluation reads it.
func (p *Plan) newSweeper() *sweeper {
	run := p.newRun()
	invariant := make([]bool, len(p.steps))
	for i, v := range p.isVariant {
		invariant[i] = !v
	}
	p.exec(invariant, run, false)
	return &sweeper{plan: p, baseline: run.slots, errs: run.errs}
}

// sharedSweeper returns the hoisted invariant baseline that repeated
// sweeps over this plan share, memoized once per plan: binding edits
// and registry moves both retire the whole plan (see PlanFor), so
// neither can leak in here.  Plans with a volatile row never share:
// their "invariant" steps are not actually invariant across calls, so
// each sweep hoists fresh, exactly as newSweeper would.
func (p *Plan) sharedSweeper() *sweeper {
	if len(p.volSteps) > 0 {
		return p.newSweeper()
	}
	if sw := p.swMemo.Load(); sw != nil {
		return sw
	}
	sw := p.newSweeper()
	p.swMemo.Store(sw)
	return sw
}

// forEachRead calls fn for every slot the step reads.  Expression slot
// sets are conservative (untaken branches count), matching the
// variance analysis, so dirtiness is never propagated too narrowly.
func (st *planStep) forEachRead(fn func(slot int)) {
	if st.kind == stepExpr {
		for _, s := range st.prog.Slots() {
			fn(s)
		}
		return
	}
	for _, s := range st.paramSlots {
		fn(s)
	}
	for _, s := range st.stdSlots {
		fn(s)
	}
	for _, cb := range st.childBases {
		for o := 0; o < nodeSlots; o++ {
			fn(cb + o)
		}
	}
}

// forEachWrite calls fn for every slot the step writes.
func (st *planStep) forEachWrite(fn func(slot int)) {
	if st.kind == stepExpr {
		fn(st.dst)
		return
	}
	for o := 0; o < nodeSlots; o++ {
		fn(st.base + o)
	}
}

// ---------------------------------------------------------------------
// Compilation

const (
	visitNew uint8 = iota
	visitActive
	visitDone
)

// globalInfo tracks one reachable global binding during compilation.
type globalInfo struct {
	owner *Node
	name  string
	e     *expr.Expr
	slot  int
	state uint8
}

type globalKey struct {
	owner *Node
	name  string
}

// nodeInfo tracks one row during compilation.
type nodeInfo struct {
	n     *Node
	idx   int
	base  int
	state uint8
}

// planDep is one edge discovered while compiling an expression: the
// referenced global or row must be scheduled before the referencing
// step.
type planDep struct {
	g *globalInfo
	n *Node
}

type planCompiler struct {
	d       *Design
	ovSlots map[string]int
	slots   int
	globals map[globalKey]*globalInfo
	nodes   map[*Node]*nodeInfo
	plan    *Plan
}

// compilePlan builds the evaluation plan for a design and a sorted
// override-name set.  Only statically reachable bindings are compiled,
// preserving the interpreter's lazy-globals semantics; an error (a
// static cycle) aborts the plan and the design evaluates through the
// interpreter instead.
func compilePlan(d *Design, names []string, regGen uint64) (*Plan, error) {
	p := &Plan{
		design:        d,
		regGen:        regGen,
		overrideNames: names,
		idxOf:         make(map[*Node]int),
	}
	pc := &planCompiler{
		d:       d,
		ovSlots: make(map[string]int, len(names)),
		globals: make(map[globalKey]*globalInfo),
		nodes:   make(map[*Node]*nodeInfo),
		plan:    p,
	}
	for _, name := range names {
		pc.ovSlots[name] = pc.slots
		p.overrideSlots = append(p.overrideSlots, pc.slots)
		pc.slots++
	}
	if err := pc.visitNode(d.Root); err != nil {
		return nil, err
	}
	p.rootIdx = pc.nodes[d.Root].idx
	p.slotCount = pc.slots
	pc.markVariance()
	p.nodeStep = make([]int, len(p.nodes))
	for i, st := range p.steps {
		if st.kind != stepNode {
			continue
		}
		p.nodeStep[st.nodeIdx] = i
		// Resolve the row's model once; a missing one stays nil and
		// execNode raises it where the interpreter would.
		if st.modelName == "" {
			continue
		}
		if m, schema, ok := d.Registry.Resolve(st.modelName); ok {
			st.mc = buildRowModelCache(st, m, schema, p.variantSlot)
			if model.IsVolatile(m) {
				p.volSteps = append(p.volSteps, i)
			}
		}
	}
	p.globalNames = make([][]string, len(p.nodes))
	for i, n := range p.nodes {
		for _, g := range n.Globals {
			p.globalNames[i] = append(p.globalNames[i], g.Name)
		}
	}
	p.globalSlot = make(map[globalKey]int, len(pc.globals))
	for k, gi := range pc.globals {
		p.globalSlot[k] = gi.slot
	}
	return p, nil
}

// alloc reserves n consecutive slots.
func (pc *planCompiler) alloc(n int) int {
	s := pc.slots
	pc.slots += n
	return s
}

// nodeInfoFor assigns a row its index and result slots on first touch.
func (pc *planCompiler) nodeInfoFor(n *Node) *nodeInfo {
	ni, ok := pc.nodes[n]
	if !ok {
		ni = &nodeInfo{n: n, idx: len(pc.plan.nodes), base: pc.alloc(nodeSlots)}
		pc.nodes[n] = ni
		pc.plan.nodes = append(pc.plan.nodes, n)
		pc.plan.nodeBase = append(pc.plan.nodeBase, ni.base)
		pc.plan.idxOf[n] = ni.idx
	}
	return ni
}

// globalInfoFor assigns a global binding its slot on first touch.
func (pc *planCompiler) globalInfoFor(owner *Node, name string, e *expr.Expr) *globalInfo {
	key := globalKey{owner, name}
	gi, ok := pc.globals[key]
	if !ok {
		gi = &globalInfo{owner: owner, name: name, e: e, slot: pc.alloc(1)}
		pc.globals[key] = gi
	}
	return gi
}

// compileAt compiles one expression in a row's scope and returns the
// program plus the dependencies its slots reference.
func (pc *planCompiler) compileAt(n *Node, e *expr.Expr) (*expr.Program, []planDep) {
	r := &planResolver{pc: pc, node: n}
	prog := expr.CompileProgram(e, r)
	return prog, r.deps
}

func (pc *planCompiler) visitDeps(deps []planDep) error {
	for _, dep := range deps {
		if dep.g != nil {
			if err := pc.visitGlobal(dep.g); err != nil {
				return err
			}
			continue
		}
		if err := pc.visitNode(dep.n); err != nil {
			return err
		}
	}
	return nil
}

// visitGlobal schedules a global binding's step after everything it
// depends on, reusing the interpreter's cycle error text.
func (pc *planCompiler) visitGlobal(gi *globalInfo) error {
	switch gi.state {
	case visitDone:
		return nil
	case visitActive:
		return &EvalError{Path: gi.owner.Path(), Msg: fmt.Sprintf("circular definition of variable %q", gi.name)}
	}
	gi.state = visitActive
	prog, deps := pc.compileAt(gi.owner, gi.e)
	if err := pc.visitDeps(deps); err != nil {
		return err
	}
	pc.plan.steps = append(pc.plan.steps, &planStep{kind: stepExpr, node: gi.owner, name: gi.name, prog: prog, dst: gi.slot, exprID: gi.e.ID()})
	gi.state = visitDone
	return nil
}

// visitNode schedules a row: its parameter programs, then its children,
// then the row's own evaluate-and-aggregate step.
func (pc *planCompiler) visitNode(n *Node) error {
	ni := pc.nodeInfoFor(n)
	switch ni.state {
	case visitDone:
		return nil
	case visitActive:
		return &EvalError{Path: n.Path(), Msg: "circular dependency between rows (through power()/area()/delay())"}
	}
	ni.state = visitActive
	st := &planStep{
		kind:      stepNode,
		node:      n,
		nodeIdx:   ni.idx,
		base:      ni.base,
		modelName: n.Model,
		compose:   n.Delay,
	}
	if n.Model != "" {
		for _, b := range n.Params {
			prog, deps := pc.compileAt(n, b.Expr)
			if err := pc.visitDeps(deps); err != nil {
				return err
			}
			slot := pc.alloc(1)
			pc.plan.steps = append(pc.plan.steps, &planStep{kind: stepExpr, node: n, name: b.Name, param: true, prog: prog, dst: slot, exprID: b.Expr.ID()})
			st.paramNames = append(st.paramNames, b.Name)
			st.paramSlots = append(st.paramSlots, slot)
		}
		// Inherit the conventional scope parameters from enclosing
		// globals when the row does not bind them itself, mirroring
		// evalModelRow.
	std:
		for _, std := range [...]string{model.ParamVDD, model.ParamFreq, model.ParamTech} {
			for _, bound := range st.paramNames {
				if bound == std {
					continue std
				}
			}
			if s, ok := pc.ovSlots[std]; ok {
				st.stdNames = append(st.stdNames, std)
				st.stdSlots = append(st.stdSlots, s)
				continue
			}
			for scope := n; scope != nil; scope = scope.parent {
				if e := scope.Global(std); e != nil {
					gi := pc.globalInfoFor(scope, std, e)
					if err := pc.visitGlobal(gi); err != nil {
						return err
					}
					st.stdNames = append(st.stdNames, std)
					st.stdSlots = append(st.stdSlots, gi.slot)
					break
				}
			}
		}
	}
	for _, c := range n.Children {
		if err := pc.visitNode(c); err != nil {
			return err
		}
		st.childBases = append(st.childBases, pc.nodes[c].base)
	}
	pc.plan.steps = append(pc.plan.steps, st)
	ni.state = visitDone
	return nil
}

// markVariance splits the schedule into the override-dependent cone
// and the invariant remainder.  A slot is variant when an override
// writes it or a variant step writes it; a step is variant when it
// reads a variant slot.  Program slot sets are conservative (branches
// count), so invariance is never claimed falsely.
func (pc *planCompiler) markVariance() {
	p := pc.plan
	variantSlot := make([]bool, p.slotCount)
	for _, s := range p.overrideSlots {
		variantSlot[s] = true
	}
	p.isVariant = make([]bool, len(p.steps))
	for i, st := range p.steps {
		st.forEachRead(func(s int) {
			p.isVariant[i] = p.isVariant[i] || variantSlot[s]
		})
		if p.isVariant[i] {
			st.forEachWrite(func(s int) { variantSlot[s] = true })
			p.variantSteps = append(p.variantSteps, i)
		}
	}
	p.variantSlot = variantSlot
}

// planResolver implements expr.Resolver and expr.CallResolver for
// expressions written at one row: overrides shadow every scope by
// plain name (as the interpreter's lookupVar does), then globals
// resolve through the scope chain, and the inter-row accessors lower
// to slot reads of the target row's result block.
type planResolver struct {
	sheetFuncs
	pc   *planCompiler
	node *Node
	deps []planDep
}

// ResolveVar implements expr.Resolver.
func (r *planResolver) ResolveVar(name string) (int, bool) {
	if s, ok := r.pc.ovSlots[name]; ok {
		return s, true
	}
	for scope := r.node; scope != nil; scope = scope.parent {
		if e := scope.Global(name); e != nil {
			gi := r.pc.globalInfoFor(scope, name, e)
			r.deps = append(r.deps, planDep{g: gi})
			return gi.slot, true
		}
	}
	return 0, false
}

// ResolveCall implements expr.CallResolver, scheduling the target row
// before the referencing step.
func (r *planResolver) ResolveCall(name string, args []expr.CallArg) expr.CallLowering {
	return rowCall(r.pc.d, r.node, name, args, func(target *Node) (int, bool) {
		r.deps = append(r.deps, planDep{n: target})
		return r.pc.nodeInfoFor(target).base, true
	})
}

// sheetFuncs supplies both plan resolvers' host functions — the same
// function values nodeEnv hands out, so results and error messages are
// identical — and claims the inter-row accessors.
type sheetFuncs struct{}

// ResolveFunc implements expr.Resolver.
func (sheetFuncs) ResolveFunc(name string) (expr.Func, bool) {
	switch name {
	case "dbtact":
		return dbtactFunc, true
	case "signact":
		return signactFunc, true
	}
	return nil, false
}

// ClaimsCall implements expr.CallResolver for the inter-row accessors.
func (sheetFuncs) ClaimsCall(name string) bool {
	switch name {
	case "power", "area", "delay":
		return true
	}
	return false
}

// rowCall lowers power("row")/area("row")/delay("row"), written at
// node from, to a read of the target row's result slot; block maps the
// target to its result block.  Malformed or dangling sites lower to
// the errors nodeEnv.Func returns, raised only if evaluated, and a read
// of a failed row is wrapped exactly as nodeEnv.Func wraps it.
func rowCall(d *Design, from *Node, name string, args []expr.CallArg, block func(*Node) (int, bool)) expr.CallLowering {
	if len(args) != 1 || !args[0].IsStr {
		return expr.CallLowering{Err: fmt.Errorf("%s() takes one quoted row path", name)}
	}
	ref := args[0].Str
	target := d.Resolve(from, ref)
	if target == nil {
		return expr.CallLowering{Err: fmt.Errorf("%s(%q): no such row", name, ref)}
	}
	base, ok := block(target)
	if !ok {
		return expr.CallLowering{Err: fmt.Errorf("%s(%q): no such row", name, ref)}
	}
	off := slotPower
	switch name {
	case "area":
		off = slotArea
	case "delay":
		off = slotDelay
	}
	wrap := func(err error) error { return fmt.Errorf("%s(%q): %v", name, ref, err) }
	return expr.CallLowering{Slot: base + off, Wrap: wrap}
}
