package sheet

// Plan patching: the edit-Play fast path.
//
// PlanFor keys its cache on the tree's mutation epoch, so any cell edit
// recompiles the entire plan — correct, but the compile (row-model
// caches included) costs several times a warm full evaluation, which
// would leave the incremental engine slower than the thing it is meant
// to beat.  patch() exploits that a
// binding-only edit cannot move the slot layout: it verifies the tree
// still has the shape the plan was compiled from, recompiles just the
// cells whose expression identity moved against the recorded slot
// assignments, and returns a shallow copy of the plan sharing every
// unchanged step — including the stepNode pointers and their row-model
// caches.  The patched plan keeps the original's registry generation:
// it is the same snapshot of the library.
//
// patch() is deliberately conservative: anything it cannot prove
// preserves the compiled schedule — a row or binding added, removed,
// renamed or reordered, a global name appearing anywhere (it could
// shadow a recorded resolution), an edited cell referencing a global
// that was unreachable at compile time, or a new reference that would
// require reordering steps — makes it bail to (nil, false), and the
// engine takes the ordinary full-compile path.  Errors inside patched
// expressions need no special care: a patched step keeps its binding's
// owner and name, so it words its failures exactly as the original.

import "powerplay/internal/expr"

// patch returns a plan equivalent to compiling the design afresh,
// provided only cell bindings changed since p was compiled; ok is
// false when that cannot be proven cheaply.  The returned plan shares
// all unchanged steps (and their caches) with p; when no binding
// changed at all it is p itself.  Only override-free plans — the
// incremental engine's — are patchable.
func (p *Plan) patch() (*Plan, bool) {
	if len(p.overrideNames) != 0 {
		return nil, false
	}
	d := p.design

	// The tree must still have exactly the compiled shape: same node
	// set, same models, same delay composition, same child order, same
	// parameter lists on model rows, and the same global names on every
	// node (a new global anywhere could shadow a recorded resolution).
	ok := true
	count := 0
	d.Root.Walk(func(n *Node) {
		count++
		if !ok {
			return
		}
		idx, in := p.idxOf[n]
		if !in {
			ok = false
			return
		}
		st := p.steps[p.nodeStep[idx]]
		if n.Model != st.modelName || n.Delay != st.compose || len(n.Children) != len(st.childBases) {
			ok = false
			return
		}
		for i, c := range n.Children {
			ci, cin := p.idxOf[c]
			if !cin || st.childBases[i] != p.nodeBase[ci] {
				ok = false
				return
			}
		}
		if n.Model != "" {
			if len(n.Params) != len(st.paramNames) {
				ok = false
				return
			}
			for i, b := range n.Params {
				if b.Name != st.paramNames[i] {
					ok = false
					return
				}
			}
		}
		names := p.globalNames[idx]
		if len(n.Globals) != len(names) {
			ok = false
			return
		}
		for i, g := range n.Globals {
			if g.Name != names[i] {
				ok = false
				return
			}
		}
	})
	if !ok || count != len(p.nodes) {
		return nil, false
	}

	// Diff the cells and recompile the edited ones in place.  A patched
	// program must read only slots written by earlier steps — a new
	// reference that violates schedule order (or would form a cycle)
	// needs a real recompile to reorder, so it bails.
	var newSteps []*planStep
	writer := p.slotWriters()
	for i, old := range p.steps {
		if old.kind != stepExpr {
			continue
		}
		var cur *expr.Expr
		if old.param {
			cur = old.node.Param(old.name)
		} else {
			cur = old.node.Global(old.name)
		}
		if cur == nil {
			return nil, false
		}
		if cur.ID() == old.exprID {
			continue
		}
		prog, rok := p.recompileCell(old.node, cur)
		if !rok {
			return nil, false
		}
		for _, s := range prog.Slots() {
			if writer[s] >= i {
				return nil, false
			}
		}
		if newSteps == nil {
			newSteps = append([]*planStep(nil), p.steps...)
		}
		newSteps[i] = &planStep{kind: stepExpr, node: old.node, name: old.name, param: old.param,
			prog: prog, dst: old.dst, exprID: cur.ID()}
	}
	if newSteps == nil {
		return p, true
	}
	return &Plan{
		design:        p.design,
		regGen:        p.regGen,
		overrideNames: p.overrideNames,
		overrideSlots: p.overrideSlots,
		slotCount:     p.slotCount,
		steps:         newSteps,
		isVariant:     p.isVariant,
		variantSteps:  p.variantSteps,
		variantSlot:   p.variantSlot,
		nodes:         p.nodes,
		nodeBase:      p.nodeBase,
		idxOf:         p.idxOf,
		rootIdx:       p.rootIdx,
		globalSlot:    p.globalSlot,
		nodeStep:      p.nodeStep,
		globalNames:   p.globalNames,
		writers:       p.writers,
		volSteps:      p.volSteps,
	}, true
}

// slotWriters maps each slot to the index of the step writing it (-1
// when none does — impossible in an override-free plan, but kept safe).
// The table is computed once and shared through patching: a patched
// step keeps its destination, so write sets never move.
func (p *Plan) slotWriters() []int {
	if w := p.writers; w != nil {
		return w
	}
	w := make([]int, p.slotCount)
	for i := range w {
		w[i] = -1
	}
	for i, st := range p.steps {
		st.forEachWrite(func(s int) { w[s] = i })
	}
	p.writers = w
	return w
}

// recompileCell compiles one edited expression against the plan's
// recorded slot assignments; ok is false when the expression references
// a binding the plan never assigned a slot (newly reachable — a real
// compile must lay it out).
func (p *Plan) recompileCell(n *Node, e *expr.Expr) (*expr.Program, bool) {
	r := &patchResolver{p: p, node: n, ok: true}
	prog := expr.CompileProgram(e, r)
	return prog, r.ok
}

// patchResolver resolves an edited cell's references against the slots
// the original compile assigned — the same scope-chain and call
// lowering rules as planResolver, minus the ability to allocate.
type patchResolver struct {
	sheetFuncs
	p    *Plan
	node *Node
	ok   bool
}

// ResolveVar implements expr.Resolver via the compiled scope chain.
func (r *patchResolver) ResolveVar(name string) (int, bool) {
	for scope := r.node; scope != nil; scope = scope.parent {
		if scope.Global(name) != nil {
			slot, in := r.p.globalSlot[globalKey{scope, name}]
			if !in {
				r.ok = false
				return 0, false
			}
			return slot, true
		}
	}
	return 0, false
}

// ResolveCall lowers power/area/delay exactly as planResolver does,
// reading the target row's recorded result block.
func (r *patchResolver) ResolveCall(name string, args []expr.CallArg) expr.CallLowering {
	return rowCall(r.p.design, r.node, name, args, func(target *Node) (int, bool) {
		idx, in := r.p.idxOf[target]
		if !in {
			// Unreachable after the shape check, but never patch blindly.
			r.ok = false
			return 0, false
		}
		return r.p.nodeBase[idx], true
	})
}
