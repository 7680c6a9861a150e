package sheet

import (
	"fmt"

	"powerplay/internal/activity"
	"powerplay/internal/core/model"
	"powerplay/internal/expr"
	"powerplay/internal/obs"
	"powerplay/internal/units"
)

// planFallbacks counts evaluations served by the tree interpreter
// because the design's plan does not compile (a static cycle).  A
// rising rate means designs keep defeating the compiled pipeline.
var planFallbacks = obs.NewCounter("powerplay_sheet_plan_fallbacks_total",
	"Evaluations served by the interpreter because the design's plan does not compile.")

// Result is the evaluated state of one row: the numbers the spreadsheet
// displays when Play is pressed.
type Result struct {
	// Node is the row this result belongs to.
	Node *Node
	// Power is the row's total (own model plus children).
	Power units.Watts
	// DynamicPower and StaticPower split the total per EQ 1.
	DynamicPower, StaticPower units.Watts
	// Area is the total active area (own plus children).
	Area units.SquareMeters
	// Delay is the slowest path: max of the row's own model delay and
	// its children's (compositional delay estimation is first-order, as
	// the paper notes).
	Delay units.Seconds
	// EnergyPerOp is the model's energy per access (leaf rows).
	EnergyPerOp units.Joules
	// Params holds the resolved parameter values of a model row.
	Params model.Params
	// Estimate is the raw model output (model rows only).
	Estimate *model.Estimate
	// Children are the sub-row results, in row order.
	Children []*Result
}

// Find returns the descendant result at a path relative to r.
func (r *Result) Find(path string) *Result {
	if path == "" {
		return r
	}
	cur := r
outer:
	for _, part := range splitPath(path) {
		for _, c := range cur.Children {
			if c.Node.Name == part {
				cur = c
				continue outer
			}
		}
		return nil
	}
	return cur
}

// EvalError reports an evaluation failure with the offending row.
type EvalError struct {
	// Path locates the row ("" is the root).
	Path string
	// Msg describes the failure.
	Msg string
	// Err, when non-nil, is the underlying cause, preserved so typed
	// errors (a mounted remote model's unavailability, a context
	// cancellation) survive sheet evaluation for errors.Is/As.  The
	// rendered message is Msg either way.
	Err error
}

func (e *EvalError) Error() string {
	where := e.Path
	if where == "" {
		where = "(root)"
	}
	return fmt.Sprintf("sheet: %s: %s", where, e.Msg)
}

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *EvalError) Unwrap() error { return e.Err }

// Evaluate computes the whole design — the Play button.
//
// Evaluation runs on the design's compiled plan (see plan.go), which
// reproduces the tree interpreter's values and error messages exactly;
// only a design whose plan does not compile (a static cycle) evaluates
// through the interpreter.
func (d *Design) Evaluate() (*Result, error) {
	return d.EvaluateAt(nil)
}

// EvaluateAt computes the design with temporary overrides applied to
// the root globals — the parameter-sweep entry point.  The design is
// not mutated.
//
// Concurrency: per-call evaluation state lives in the evaluator (or a
// pooled plan run), so concurrent EvaluateAt (and Evaluate) calls on
// one Design are safe as long as no goroutine mutates the design tree
// while they run.  The web handlers evaluate the live design under a
// read lock that keeps edits out, so they share its cached plans; see
// DESIGN.md's "Concurrent exploration" section for the full contract.
func (d *Design) EvaluateAt(overrides map[string]float64) (*Result, error) {
	r, _, _, _, err := d.evaluate(overrides, true)
	return r, err
}

// EvaluateTotals computes just the design's root power, area and delay
// at an override point — identical numbers to EvaluateAt's root Result,
// without building the Result tree.  Macro evaluation uses it, which
// is what makes deeply nested macro hierarchies cheap, and so does
// every sweep point the columnar engine does not price.
func (d *Design) EvaluateTotals(overrides map[string]float64) (power, area, delay float64, err error) {
	_, power, area, delay, err = d.evaluate(overrides, false)
	return power, area, delay, err
}

// evaluate runs the design's plan, or the interpreter when the plan
// does not compile: the interpreter's one production caller.  The
// Result tree is built only when keep is set.
func (d *Design) evaluate(overrides map[string]float64, keep bool) (r *Result, power, area, delay float64, err error) {
	plan, err := d.PlanFor(overrideNames(overrides))
	if err == nil {
		return plan.evalAt(overrides, keep)
	}
	planFallbacks.Inc()
	if r, err = d.EvaluateInterpreted(overrides); err != nil {
		return nil, 0, 0, 0, err
	}
	return r, float64(r.Power), float64(r.Area), float64(r.Delay), nil
}

// EvaluateInterpreted computes the design through the tree interpreter
// only, bypassing the compiled plan.  It is the semantic reference the
// equivalence tests hold every other path to: Evaluate/EvaluateAt must
// agree with it exactly, value for value and error message for error
// message.
func (d *Design) EvaluateInterpreted(overrides map[string]float64) (*Result, error) {
	ev := &evaluator{
		design:    d,
		results:   make(map[*Node]*Result),
		visiting:  make(map[*Node]bool),
		frames:    make(map[*Node]*frame),
		overrides: overrides,
	}
	return ev.node(d.Root)
}

type evaluator struct {
	design    *Design
	results   map[*Node]*Result
	visiting  map[*Node]bool
	frames    map[*Node]*frame
	overrides map[string]float64
}

// frame lazily evaluates one node's globals.
type frame struct {
	node     *Node
	values   map[string]float64
	visiting map[string]bool
}

func (ev *evaluator) frameFor(n *Node) *frame {
	f, ok := ev.frames[n]
	if !ok {
		f = &frame{node: n, values: make(map[string]float64), visiting: make(map[string]bool)}
		ev.frames[n] = f
	}
	return f
}

func (ev *evaluator) errf(n *Node, format string, args ...any) error {
	return &EvalError{Path: n.Path(), Msg: fmt.Sprintf(format, args...)}
}

// lookupVar resolves a variable visible at node n: root overrides
// first, then globals from n's own frame outward to the root.
func (ev *evaluator) lookupVar(n *Node, name string) (float64, bool, error) {
	if ev.overrides != nil {
		if v, ok := ev.overrides[name]; ok {
			return v, true, nil
		}
	}
	for scope := n; scope != nil; scope = scope.parent {
		if e := scope.Global(name); e != nil {
			v, err := ev.globalValue(scope, name, e)
			if err != nil {
				return 0, false, err
			}
			return v, true, nil
		}
	}
	return 0, false, nil
}

// globalValue evaluates a global with memoization and cycle detection.
func (ev *evaluator) globalValue(owner *Node, name string, e *expr.Expr) (float64, error) {
	f := ev.frameFor(owner)
	if v, ok := f.values[name]; ok {
		return v, nil
	}
	if f.visiting[name] {
		return 0, ev.errf(owner, "circular definition of variable %q", name)
	}
	f.visiting[name] = true
	defer delete(f.visiting, name)
	env := &nodeEnv{ev: ev, node: owner}
	v, err := e.Eval(env)
	if env.err != nil {
		// A scope resolution failed deeper in (e.g. a variable cycle);
		// surface that cause rather than the generic eval error.
		return 0, env.err
	}
	if err != nil {
		return 0, ev.errf(owner, "variable %q: %v", name, err)
	}
	f.values[name] = v
	return v, nil
}

// nodeEnv adapts the evaluator to expr's environment interfaces for
// expressions written at a given node.
type nodeEnv struct {
	ev   *evaluator
	node *Node
	err  error // sticky first resolution error
}

// Var implements expr.Env.
func (env *nodeEnv) Var(name string) (float64, bool) {
	v, ok, err := env.ev.lookupVar(env.node, name)
	if err != nil && env.err == nil {
		env.err = err
	}
	return v, ok
}

// dbtactFunc implements dbtact(std, rho, bits): the dual-bit-type
// activity scale for a word carrying a signal with the given
// statistics, relative to the random-data characterization — bind a
// cell's "act" parameter to it and the sheet prices signal
// correlation.  It is a package-level value so the interpreter's
// nodeEnv and the compiled plan's resolver hand out the same function.
var dbtactFunc expr.Func = func(args []expr.Value) (float64, error) {
	if len(args) != 3 {
		return 0, fmt.Errorf("dbtact(std, rho, bits) takes three numbers")
	}
	std, err := args[0].Float()
	if err != nil {
		return 0, err
	}
	rho, err := args[1].Float()
	if err != nil {
		return 0, err
	}
	bits, err := args[2].Float()
	if err != nil {
		return 0, err
	}
	s := activity.Stats{Std: std, Rho: rho}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if bits < 1 || bits > 1024 {
		return 0, fmt.Errorf("dbtact: bits %g out of range", bits)
	}
	return s.ActScale(int(bits)), nil
}

// signactFunc implements signact(rho): the sign-bit transition
// probability arccos(ρ)/π.
var signactFunc expr.Func = func(args []expr.Value) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("signact(rho) takes one number")
	}
	rho, err := args[0].Float()
	if err != nil {
		return 0, err
	}
	return activity.SignActivity(rho), nil
}

// Func implements expr.FuncEnv: the inter-model accessors plus the
// signal-statistics helpers.
func (env *nodeEnv) Func(name string) (expr.Func, bool) {
	if f, ok := (sheetFuncs{}).ResolveFunc(name); ok {
		return f, true
	}
	var metric func(*Result) float64
	switch name {
	case "power":
		metric = func(r *Result) float64 { return float64(r.Power) }
	case "area":
		metric = func(r *Result) float64 { return float64(r.Area) }
	case "delay":
		metric = func(r *Result) float64 { return float64(r.Delay) }
	default:
		return nil, false
	}
	return func(args []expr.Value) (float64, error) {
		if len(args) != 1 || !args[0].IsStr {
			return 0, fmt.Errorf("%s() takes one quoted row path", name)
		}
		ref := args[0].Str
		target := env.ev.design.Resolve(env.node, ref)
		if target == nil {
			return 0, fmt.Errorf("%s(%q): no such row", name, ref)
		}
		r, err := env.ev.node(target)
		if err != nil {
			return 0, fmt.Errorf("%s(%q): %v", name, ref, err)
		}
		return metric(r), nil
	}, true
}

// evalExpr evaluates an expression at a node, surfacing scope errors.
func (ev *evaluator) evalExpr(n *Node, e *expr.Expr) (float64, error) {
	env := &nodeEnv{ev: ev, node: n}
	v, err := e.Eval(env)
	if env.err != nil {
		return 0, env.err
	}
	return v, err
}

// node computes (and memoizes) a row's result.
func (ev *evaluator) node(n *Node) (*Result, error) {
	if r, ok := ev.results[n]; ok {
		return r, nil
	}
	if ev.visiting[n] {
		return nil, ev.errf(n, "circular dependency between rows (through power()/area()/delay())")
	}
	ev.visiting[n] = true
	defer delete(ev.visiting, n)

	r := &Result{Node: n}

	if n.Model != "" {
		if err := ev.evalModelRow(n, r); err != nil {
			return nil, err
		}
	}
	for _, c := range n.Children {
		cr, err := ev.node(c)
		if err != nil {
			return nil, err
		}
		r.Children = append(r.Children, cr)
		r.Power += cr.Power
		r.DynamicPower += cr.DynamicPower
		r.StaticPower += cr.StaticPower
		r.Area += cr.Area
		switch n.Delay {
		case ComposeChain:
			// Children in series along one path: delays add.
			r.Delay += cr.Delay
		default:
			// Parallel children: the slowest dominates.
			if cr.Delay > r.Delay {
				r.Delay = cr.Delay
			}
		}
	}
	ev.results[n] = r
	return r, nil
}

func (ev *evaluator) evalModelRow(n *Node, r *Result) error {
	m, schema, ok := ev.design.Registry.Resolve(n.Model)
	if !ok {
		return ev.errf(n, "no model named %q in library", n.Model)
	}
	params := make(model.Params, len(n.Params)+3)
	for _, b := range n.Params {
		v, err := ev.evalExpr(n, b.Expr)
		if err != nil {
			if ee, ok := err.(*EvalError); ok {
				return ee
			}
			return ev.errf(n, "param %q: %v", b.Name, err)
		}
		params[b.Name] = v
	}
	// Inherit the conventional scope parameters from enclosing globals
	// when the row does not bind them itself: the Figure 2 sheet sets
	// "Supply V" and "Operating Frequency" once at the top.
	for _, std := range []string{model.ParamVDD, model.ParamFreq, model.ParamTech} {
		if _, bound := params[std]; bound {
			continue
		}
		if v, ok, err := ev.lookupVar(n, std); err != nil {
			return err
		} else if ok {
			params[std] = v
		}
	}
	est, err := schema.Evaluate(m, params)
	if err != nil {
		// Keep the cause: the message is identical to errf's "%v", but
		// errors.Is still sees through to typed model errors (e.g. a
		// remote library's ErrRemoteUnavailable).
		return &EvalError{Path: n.Path(), Msg: err.Error(), Err: err}
	}
	r.Estimate = est
	r.Params = params
	v, energy := modelValues(est)
	r.Power = units.Watts(v[slotPower])
	r.DynamicPower = units.Watts(v[slotDynamic])
	r.StaticPower = units.Watts(v[slotStatic])
	r.Area = units.SquareMeters(v[slotArea])
	r.Delay = units.Seconds(v[slotDelay])
	r.EnergyPerOp = energy
	return nil
}
