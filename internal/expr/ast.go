package expr

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Node is an expression tree node.
type Node interface {
	// writeTo re-serializes the node into canonical source form.
	writeTo(b *strings.Builder)
}

// Num is a numeric literal.  Text preserves the engineering-notation
// spelling from the source ("253fF") so spreadsheets re-display what the
// user typed.
type Num struct {
	Value float64
	Text  string
}

// Str is a string literal, used as an argument to functions such as
// power("radio").
type Str struct {
	Value string
}

// Var is a (possibly dotted) variable reference.
type Var struct {
	Name string
}

// Call is a function application.
type Call struct {
	Name string
	Args []Node
}

// Unary is a prefix operation: "-", "+" or "!".
type Unary struct {
	Op string
	X  Node
}

// Binary is an infix operation.
type Binary struct {
	Op   string
	L, R Node
}

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	C, A, B Node
}

func (n *Num) writeTo(b *strings.Builder) {
	if n.Text != "" {
		b.WriteString(n.Text)
		return
	}
	b.WriteString(strconv.FormatFloat(n.Value, 'g', -1, 64))
}

func (n *Str) writeTo(b *strings.Builder) {
	b.WriteString(strconv.Quote(n.Value))
}

func (n *Var) writeTo(b *strings.Builder) { b.WriteString(n.Name) }

func (n *Call) writeTo(b *strings.Builder) {
	b.WriteString(n.Name)
	b.WriteByte('(')
	for i, a := range n.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		a.writeTo(b)
	}
	b.WriteByte(')')
}

func (n *Unary) writeTo(b *strings.Builder) {
	b.WriteString(n.Op)
	if needParens(n.X) {
		b.WriteByte('(')
		n.X.writeTo(b)
		b.WriteByte(')')
	} else {
		n.X.writeTo(b)
	}
}

func (n *Binary) writeTo(b *strings.Builder) {
	writeOperand(b, n.L)
	b.WriteByte(' ')
	b.WriteString(n.Op)
	b.WriteByte(' ')
	writeOperand(b, n.R)
}

func (n *Cond) writeTo(b *strings.Builder) {
	writeOperand(b, n.C)
	b.WriteString(" ? ")
	writeOperand(b, n.A)
	b.WriteString(" : ")
	writeOperand(b, n.B)
}

func writeOperand(b *strings.Builder, n Node) {
	if needParens(n) {
		b.WriteByte('(')
		n.writeTo(b)
		b.WriteByte(')')
	} else {
		n.writeTo(b)
	}
}

func needParens(n Node) bool {
	switch n.(type) {
	case *Binary, *Cond:
		return true
	}
	return false
}

// Expr is a compiled expression ready for repeated evaluation.
type Expr struct {
	src  string
	root Node
	id   uint64
}

// nextExprID hands each Expr a process-unique identity (see Expr.ID).
var nextExprID atomic.Uint64

// Source returns the original source text of the expression.
func (e *Expr) Source() string { return e.src }

// ID returns a process-unique identity for the expression.  Because an
// Expr is immutable after Compile and rebinding a cell swaps pointers
// rather than mutating in place, comparing binding IDs tells which
// cells were edited — what plan patching and the incremental engine use
// to find the dirty cells.
func (e *Expr) ID() uint64 { return e.id }

// String re-serializes the expression in canonical form.
func (e *Expr) String() string {
	var b strings.Builder
	e.root.writeTo(&b)
	return b.String()
}

func walk(n Node, f func(Node)) {
	f(n)
	switch n := n.(type) {
	case *Call:
		for _, a := range n.Args {
			walk(a, f)
		}
	case *Unary:
		walk(n.X, f)
	case *Binary:
		walk(n.L, f)
		walk(n.R, f)
	case *Cond:
		walk(n.C, f)
		walk(n.A, f)
		walk(n.B, f)
	}
}

// Const reports whether the expression has no free variables or function
// calls, and if so returns its value.
func (e *Expr) Const() (float64, bool) {
	varsOrCalls := false
	walk(e.root, func(n Node) {
		switch n.(type) {
		case *Var, *Call:
			varsOrCalls = true
		}
	})
	if varsOrCalls {
		return 0, false
	}
	v, err := e.Eval(EmptyEnv{})
	if err != nil {
		return 0, false
	}
	return v, true
}

// Literal builds a compiled expression holding a constant, displayed in
// engineering notation with the given unit.
func Literal(v float64, text string) *Expr {
	if text == "" {
		text = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return &Expr{src: text, root: &Num{Value: v, Text: text}, id: nextExprID.Add(1)}
}

// MustCompile is Compile that panics on error; for use with expression
// constants in source code.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(fmt.Sprintf("expr.MustCompile(%q): %v", src, err))
	}
	return e
}
