package sheet

// Independent copies of a design.
//
// EvaluateAt keeps all of its working state (memoized results, variable
// frames, cycle-detection sets) inside a per-call evaluator, so any
// number of evaluations may run concurrently over one Design — PROVIDED
// nothing mutates the design tree while they run.  Servers that edit a
// live sheet enforce that with a lock around their reads, and so share
// the design's cached plans.  Clone is for code that wants a copy it
// can edit or evaluate apart from the original: a what-if variant, or
// a replay that must not warm the original's plan cache.

// Clone returns a deep, independent copy of the design: a snapshot that
// later edits to d (new rows, rebound cells) cannot affect.
//
// The node tree and every binding slice are copied; the compiled
// expressions themselves are shared, which is safe because *expr.Expr
// is immutable after Compile (rebinding a cell swaps the pointer in the
// owning node's slice, never the expression in place).  The model
// Registry is also shared — it is safe for concurrent use, and sharing
// it keeps remote and user-defined models resolvable from the clone.
//
// Evaluating a clone is race-free against any mutation of the
// original, and concurrent EvaluateAt calls on one clone are race-free
// against each other.  A clone starts with an empty plan cache, so its
// first evaluation compiles.
func (d *Design) Clone() *Design {
	if d == nil {
		return nil
	}
	return &Design{
		Name:     d.Name,
		Doc:      d.Doc,
		Root:     d.Root.Clone(),
		Registry: d.Registry,
	}
}

// Clone returns a deep copy of the node and its whole subtree.  The
// copy's parent is nil, making it a self-contained root; binding slices
// are copied (sharing the immutable compiled expressions) so parameter
// and variable edits on either tree never show through to the other.
func (n *Node) Clone() *Node {
	return n.cloneInto(nil)
}

func (n *Node) cloneInto(parent *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{
		Name:   n.Name,
		Doc:    n.Doc,
		Model:  n.Model,
		Delay:  n.Delay,
		parent: parent,
	}
	if len(n.Params) > 0 {
		c.Params = append([]Binding(nil), n.Params...)
	}
	if len(n.Globals) > 0 {
		c.Globals = append([]Binding(nil), n.Globals...)
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.cloneInto(c))
	}
	return c
}
