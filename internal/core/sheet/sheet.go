// Package sheet implements PowerPlay's design spreadsheet: the
// hierarchical, parameterized worksheet the user explores a design
// through.
//
// A design is a tree.  Every node is a row: either an instance of a
// library model (a subcircuit) or a pure hierarchy level that groups
// other rows.  Variables ("globals") may be introduced at any level —
// the Figure 2 sheet introduces "Supply V" and "Operating Frequency" at
// the top — and any parameter of any row may be an expression over the
// globals in scope, so changing one cell and pressing Play re-prices
// the whole design.  Expressions may also reference the computed power,
// area or delay of other rows (power("radio"), area("datapath")), the
// inter-model interaction that makes DC-DC converters and interconnect
// models work; the evaluator resolves these dependencies lazily and
// rejects cycles.
package sheet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"powerplay/internal/core/model"
	"powerplay/internal/expr"
)

// Binding is one named expression cell (a parameter or a global).
type Binding struct {
	// Name is the parameter or variable name.
	Name string
	// Expr is the compiled expression.
	Expr *expr.Expr
}

// Compose selects how a hierarchy node combines its children's delays
// — the compositional delay estimation the paper lists as under
// examination.  Power and area always sum; delay depends on structure.
type Compose string

// Delay composition modes.
const (
	// ComposeMax models parallel children: the level is as slow as its
	// slowest child (the default, safe for unstructured groups).
	ComposeMax Compose = ""
	// ComposeChain models children in series along one path: delays
	// add, as through a pipeline stage's logic.
	ComposeChain Compose = "chain"
)

// Node is one row (and possibly subtree) of the design sheet.
type Node struct {
	// Name is the row label, unique among siblings.  Names use the
	// identifier syntax so paths can appear in expressions.
	Name string
	// Doc is the row's documentation hyperlink text.
	Doc string
	// Model is the library model this row instantiates; empty for pure
	// hierarchy nodes.
	Model string
	// Delay selects how children's delays compose at this level.
	Delay Compose
	// Params are the model parameter bindings, in display order.
	Params []Binding
	// Globals are variables introduced at this level, visible to this
	// node's parameters and its whole subtree, in display order.
	Globals []Binding
	// Children are the sub-rows.
	Children []*Node

	parent *Node

	// epoch counts mutations over the subtree rooted here.  Only the
	// value on a tree's root is meaningful: every mutator bumps the
	// root's counter, which keys the evaluation-plan cache (see
	// plan.go).
	epoch atomic.Uint64
}

// bump records a mutation on the tree containing n.
func (n *Node) bump() {
	r := n
	for r.parent != nil {
		r = r.parent
	}
	r.epoch.Add(1)
}

// designIDs mints process-unique design identities (see Design.ID).
var designIDs atomic.Uint64

// Design is a complete sheet bound to a model library.
type Design struct {
	// Name titles the sheet ("Luminance_1", "InfoPad System").
	Name string
	// Doc is the sheet-level documentation.
	Doc string
	// Root is the top hierarchy node.  Its globals are the sheet's
	// top-level parameter rows.
	Root *Node
	// Registry resolves model names.
	Registry *model.Registry

	// Compiled-plan cache (see plan.go).  Guarded by planMu; the plans
	// were compiled from planRoot at mutation epoch planEpoch against
	// registry generation planRegGen, so any tree edit or model
	// (un)registration invalidates them on the next PlanFor call.
	planMu     sync.Mutex
	planRoot   *Node
	planEpoch  uint64
	planRegGen uint64
	plans      map[string]*planEntry

	// id lazily holds the design's process-unique identity (see ID).
	id atomic.Uint64

	// inc lazily holds the incremental Play engine (see incremental.go).
	inc atomic.Pointer[Incremental]
}

// Generation returns the design's mutation generation: a cheap
// monotonic counter bumped by every tree mutation (AddChild,
// RemoveChild, SetParam, SetGlobal, their Delete twins and Touch).
// Two reads returning the same value bracket a span in which the tree
// did not change, which makes the counter the invalidation key for
// anything derived from an evaluation — the web layer's memoized
// results, rendered pages and sweep point caches all key on it, as
// does the compiled-plan cache.  It costs one atomic load, unlike a
// serialization hash.
func (d *Design) Generation() uint64 { return d.Root.epoch.Load() }

// Touch advances the generation without changing the tree: callers
// that must force downstream caches to re-derive (the web Play button,
// whose contract is "recompute now" even when no cell changed — a
// mounted remote model may answer differently) bump through here.
func (d *Design) Touch() { d.Root.bump() }

// ID returns a process-unique identity for this Design value, assigned
// on first use and stable thereafter.  Generations of different
// designs are not comparable; ID disambiguates them, so (ID,
// Generation) is a process-wide cache key — used by the web layer's
// ETags, where a design replaced under the same name must never
// revalidate a client's stale page.  Clones get their own identity.
func (d *Design) ID() uint64 {
	if id := d.id.Load(); id != 0 {
		return id
	}
	d.id.CompareAndSwap(0, designIDs.Add(1))
	return d.id.Load()
}

// NewDesign creates an empty sheet over a library.
func NewDesign(name string, reg *model.Registry) *Design {
	return &Design{
		Name:     name,
		Root:     &Node{Name: name},
		Registry: reg,
	}
}

// validName reports whether a row name can appear in expression paths.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			i > 0 && (r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// AddChild appends a new row under n and returns it.
func (n *Node) AddChild(name, modelName string) (*Node, error) {
	if !validName(name) {
		return nil, fmt.Errorf("sheet: invalid row name %q", name)
	}
	if n.Child(name) != nil {
		return nil, fmt.Errorf("sheet: duplicate row %q under %q", name, n.Name)
	}
	c := &Node{Name: name, Model: modelName, parent: n}
	n.Children = append(n.Children, c)
	n.bump()
	return c, nil
}

// MustAddChild is AddChild that panics on error, for programmatic
// design construction.
func (n *Node) MustAddChild(name, modelName string) *Node {
	c, err := n.AddChild(name, modelName)
	if err != nil {
		panic(err)
	}
	return c
}

// Child finds a direct child by name.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// RemoveChild deletes a direct child; it reports whether it existed.
func (n *Node) RemoveChild(name string) bool {
	for i, c := range n.Children {
		if c.Name == name {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.parent = nil
			n.bump()
			return true
		}
	}
	return false
}

// Parent returns the enclosing node (nil at the root).
func (n *Node) Parent() *Node { return n.parent }

// Path returns the slash-separated path from the root (which is "").
func (n *Node) Path() string {
	if n.parent == nil {
		return ""
	}
	parentPath := n.parent.Path()
	if parentPath == "" {
		return n.Name
	}
	return parentPath + "/" + n.Name
}

// SetParam binds a model parameter to an expression source.
func (n *Node) SetParam(name, src string) error {
	e, err := expr.Compile(src)
	if err != nil {
		return fmt.Errorf("sheet: row %q param %q: %w", n.Name, name, err)
	}
	set(&n.Params, name, e)
	n.bump()
	return nil
}

// Param returns the binding for name, or nil.
func (n *Node) Param(name string) *expr.Expr { return get(n.Params, name) }

// DeleteParam removes a binding; it reports whether it existed.
func (n *Node) DeleteParam(name string) bool {
	ok := del(&n.Params, name)
	if ok {
		n.bump()
	}
	return ok
}

// SetGlobal introduces (or rebinds) a variable at this level.
func (n *Node) SetGlobal(name, src string) error {
	if !validName(name) && !strings.Contains(name, ".") {
		return fmt.Errorf("sheet: invalid variable name %q", name)
	}
	e, err := expr.Compile(src)
	if err != nil {
		return fmt.Errorf("sheet: row %q variable %q: %w", n.Name, name, err)
	}
	set(&n.Globals, name, e)
	n.bump()
	return nil
}

// SetGlobalValue introduces a variable bound to a literal.
func (n *Node) SetGlobalValue(name string, v float64, text string) {
	set(&n.Globals, name, expr.Literal(v, text))
	n.bump()
}

// Global returns the variable binding at this level, or nil.
func (n *Node) Global(name string) *expr.Expr { return get(n.Globals, name) }

// DeleteGlobal removes a variable; it reports whether it existed.
func (n *Node) DeleteGlobal(name string) bool {
	ok := del(&n.Globals, name)
	if ok {
		n.bump()
	}
	return ok
}

func set(bindings *[]Binding, name string, e *expr.Expr) {
	for i := range *bindings {
		if (*bindings)[i].Name == name {
			(*bindings)[i].Expr = e
			return
		}
	}
	*bindings = append(*bindings, Binding{Name: name, Expr: e})
}

func get(bindings []Binding, name string) *expr.Expr {
	for i := range bindings {
		if bindings[i].Name == name {
			return bindings[i].Expr
		}
	}
	return nil
}

func del(bindings *[]Binding, name string) bool {
	for i := range *bindings {
		if (*bindings)[i].Name == name {
			*bindings = append((*bindings)[:i], (*bindings)[i+1:]...)
			return true
		}
	}
	return false
}

// Walk visits n and its subtree depth-first.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Find resolves a path relative to n.  Paths are slash- or
// dot-separated row names; an empty path is n itself.
func (n *Node) Find(path string) *Node {
	if path == "" {
		return n
	}
	cur := n
	for _, part := range splitPath(path) {
		if cur = cur.Child(part); cur == nil {
			return nil
		}
	}
	return cur
}

func splitPath(path string) []string {
	return strings.FieldsFunc(path, func(r rune) bool { return r == '/' || r == '.' })
}

// Resolve finds the node a reference names, looking first among the
// referencing node's siblings (and their subtrees), then walking up the
// ancestry, then from the design root.  This is the rule that makes
// power("radio") in a converter row mean "my sibling radio".
func (d *Design) Resolve(from *Node, ref string) *Node {
	for scope := from.parent; scope != nil; scope = scope.parent {
		if hit := scope.Find(ref); hit != nil {
			return hit
		}
	}
	if from.parent == nil { // referencing from the root itself
		if hit := from.Find(ref); hit != nil {
			return hit
		}
	}
	return d.Root.Find(ref)
}
