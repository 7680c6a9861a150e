package expr

import (
	"fmt"
	"math"
	"sort"

	"powerplay/internal/obs"
)

// This file implements the compiled evaluation pipeline's first stage:
// lowering a parsed expression tree to a flat postfix instruction slice
// that evaluates with zero map lookups and zero allocations in the
// numeric path.  Variables are resolved to integer slots in a caller-
// provided vector at compile time, builtins and host functions to
// direct function values, and constant subtrees are folded.  The
// program preserves the tree interpreter's semantics exactly — same
// values (operation for operation, so floats are bit-identical), same
// short-circuit behaviour, and the same error at the same point — so
// sheet evaluation swaps it in transparently.  A slot may hold Failed
// instead of a value; reading it raises the error stored for the slot,
// which is how a failed binding stays lazy until something reads it.

// Resolver supplies compile-time name resolution for CompileProgram:
// the static counterpart of Env/FuncEnv.  Variables resolve to slot
// indices into the slot vector passed to Program.Run; host functions
// resolve to direct function values.  Either method may report a name
// as unknown, in which case the program raises the interpreter's
// corresponding evaluation error when (and only when) the operand is
// actually reached.
type Resolver interface {
	// ResolveVar maps a variable name to its slot index.
	ResolveVar(name string) (slot int, ok bool)
	// ResolveFunc maps a host-function name to its implementation.
	// Host functions shadow built-ins of the same name, exactly as
	// FuncEnv does during tree interpretation.
	ResolveFunc(name string) (Func, bool)
}

// CallArg summarizes one call-site argument for CallResolver: string
// literals carry their value, every other argument shape is opaque.
type CallArg struct {
	// IsStr marks a string-literal argument.
	IsStr bool
	// Str is the literal's value when IsStr.
	Str string
}

// CallLowering is a CallResolver's verdict on a call site: either the
// call's value lives in a precomputed slot, or the site is statically
// wrong and evaluating it must raise Err.  Either error is raised as
// the interpreter raises a failing host function's: wrapped in an
// EvalError naming the function.
type CallLowering struct {
	// Slot holds the call's value when Err is nil.
	Slot int
	// Err, when non-nil, is raised if the call site is evaluated.
	Err error
	// Wrap turns the error stored for a Failed Slot into the error the
	// host function would have returned.
	Wrap func(error) error
}

// failedBits is a signalling NaN.  Hardware quiets every NaN it
// computes, so no arithmetic result carries these bits.
const failedBits = 0x7ff0_0000_dead_0001

// Failed is the value of a slot whose computation failed.  Its error
// lives in the failed table passed to Run, at the same index.
var Failed = math.Float64frombits(failedBits)

// IsFailed reports whether v is the Failed marker (a plain NaN is not).
func IsFailed(v float64) bool { return math.Float64bits(v) == failedBits }

// CallResolver is an optional Resolver extension that lowers whole call
// sites to slot reads.  The sheet compiler uses it for the inter-row
// accessors power("x"), area("x") and delay("x"), whose values the
// evaluation plan computes into slots before any referencing expression
// runs.
type CallResolver interface {
	// ClaimsCall reports whether the named function belongs to this
	// resolver.  Claimed names shadow host functions and built-ins.
	ClaimsCall(name string) bool
	// ResolveCall lowers a claimed call site; it is invoked once per
	// site with the argument shapes.
	ResolveCall(name string, args []CallArg) CallLowering
}

// EmptyResolver resolves nothing: programs compiled against it evaluate
// literals and built-ins only, like Eval under EmptyEnv.
type EmptyResolver struct{}

// ResolveVar reports every variable as unknown.
func (EmptyResolver) ResolveVar(string) (int, bool) { return 0, false }

// ResolveFunc reports every host function as unknown.
func (EmptyResolver) ResolveFunc(string) (Func, bool) { return nil, false }

// opcode enumerates the program instructions.
type opcode uint8

const (
	opConst opcode = iota // push val
	opSlot                // push slots[a]
	opNeg                 // top = -top
	opNot                 // top = top==0 ? 1 : 0
	opBool                // top = top!=0 ? 1 : 0
	opAdd                 // pop r; top += r
	opSub
	opMul
	opDiv // errs[a] when divisor is zero
	opMod // errs[a] when divisor is zero
	opPow
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAndShort // if top==0 {top=0; jump a} else pop
	opOrShort  // if top!=0 {top=1; jump a} else pop
	opJmp      // jump a
	opJmpFalse // pop; jump a when zero
	opCallB    // built-in call: a args from the stack through sites[b]
	opCallH    // host call: a numeric args from the stack through sites[b]
	opErr      // raise errs[a]
)

// instr is one program instruction.  a and b are opcode-specific
// operands (slot, jump target, arg count, table index).
type instr struct {
	op  opcode
	a   int32
	b   int32
	val float64
}

// callSite is one resolved call target.
type callSite struct {
	name string
	bfn  func([]float64) (float64, error) // built-in
	hfn  Func                             // host function
	tmpl []Value                          // host arg template; string slots prefilled
	wrap func(error) error                // claimed call: see CallLowering.Wrap
}

// Program is a compiled expression: a flat instruction slice evaluating
// against a slot vector.  Programs are immutable after CompileProgram
// and safe for concurrent Run calls (per-call state lives in the
// caller's Scratch).
type Program struct {
	src      string
	code     []instr
	sites    []callSite
	errs     []error
	maxStack int
	slots    []int
}

// Scratch is reusable per-goroutine evaluation state.  A zero Scratch
// is ready to use; after the first Run it holds grown buffers, making
// subsequent runs allocation-free.
type Scratch struct {
	stack []float64
	vals  []Value
}

// Slots returns the distinct slot indices the program may read, sorted
// ascending: the expression's statically-known data dependencies.
// Slots behind untaken branches are included (the set is conservative).
func (p *Program) Slots() []int { return p.slots }

// CompileProgram lowers a parsed expression to a slot-resolved program.
// Compilation never fails: names the scope cannot resolve compile to
// instructions that raise the interpreter's corresponding error if the
// operand is reached, so Run errs exactly when Eval would.
// programCompiles counts expression lowerings: plan (re)compilation
// cost made visible, since a site whose designs churn recompiles every
// binding per edit.
var programCompiles = obs.NewCounter("powerplay_expr_program_compiles_total",
	"Expressions lowered to slot-resolved programs.")

func CompileProgram(e *Expr, scope Resolver) *Program {
	programCompiles.Inc()
	c := &progCompiler{e: e, scope: scope, p: &Program{src: e.src}}
	if cr, ok := scope.(CallResolver); ok {
		c.calls = cr
	}
	c.emit(e.root)
	sort.Ints(c.p.slots)
	return c.p
}

type progCompiler struct {
	e     *Expr
	scope Resolver
	calls CallResolver
	p     *Program

	cur, max int // stack depth accounting
}

func (c *progCompiler) push(n int) {
	c.cur += n
	if c.cur > c.max {
		c.max = c.cur
	}
	c.p.maxStack = c.max
}

func (c *progCompiler) pop(n int) { c.cur -= n }

func (c *progCompiler) add(in instr) int {
	c.p.code = append(c.p.code, in)
	return len(c.p.code) - 1
}

// patch sets instruction i's jump target to the next emitted index.
func (c *progCompiler) patch(i int) { c.p.code[i].a = int32(len(c.p.code)) }

func (c *progCompiler) addErr(format string, args ...any) int32 {
	c.p.errs = append(c.p.errs, &EvalError{Expr: c.e.src, Msg: fmt.Sprintf(format, args...)})
	return int32(len(c.p.errs) - 1)
}

func (c *progCompiler) emitErr(format string, args ...any) {
	c.add(instr{op: opErr, a: c.addErr(format, args...)})
	c.push(1) // keep depth accounting consistent across branches
}

// slotRead pushes slots[slot].  site is 0 for a variable, else 1 + the
// index of the claimed call site whose Wrap words a Failed read.
func (c *progCompiler) slotRead(slot int, site int32) {
	c.add(instr{op: opSlot, a: int32(slot), b: site})
	c.push(1)
	for _, s := range c.p.slots {
		if s == slot {
			return
		}
	}
	c.p.slots = append(c.p.slots, slot)
}

// foldable reports whether a subtree is a compile-time constant: no
// variables and no calls other than built-ins the scope does not
// shadow.
func (c *progCompiler) foldable(n Node) bool {
	ok := true
	walk(n, func(m Node) {
		switch m := m.(type) {
		case *Var:
			ok = false
		case *Call:
			if c.calls != nil && c.calls.ClaimsCall(m.Name) {
				ok = false
			} else if _, host := c.scope.ResolveFunc(m.Name); host {
				ok = false
			} else if _, builtin := builtins[m.Name]; !builtin {
				ok = false
			}
		}
	})
	return ok
}

// fold evaluates a constant subtree with the tree interpreter itself,
// so the folded value is bit-identical to what Eval would compute.  A
// subtree that errors (1/0, bad arity) is not folded — it compiles to
// code that raises the same error only if actually reached.
func (c *progCompiler) fold(n Node) (float64, bool) {
	if _, isNum := n.(*Num); isNum {
		return 0, false // already a single instruction; nothing to fold
	}
	if !c.foldable(n) {
		return 0, false
	}
	v, err := c.e.eval(n, EmptyEnv{})
	if err != nil {
		return 0, false
	}
	return v, true
}

func (c *progCompiler) emit(n Node) {
	if v, ok := c.fold(n); ok {
		c.add(instr{op: opConst, val: v})
		c.push(1)
		return
	}
	switch n := n.(type) {
	case *Num:
		c.add(instr{op: opConst, val: n.Value})
		c.push(1)
	case *Str:
		c.emitErr("string %q used as a number", n.Value)
	case *Var:
		if slot, ok := c.scope.ResolveVar(n.Name); ok {
			c.slotRead(slot, 0)
			return
		}
		c.emitErr("undefined variable %q", n.Name)
	case *Unary:
		c.emit(n.X)
		switch n.Op {
		case "-":
			c.add(instr{op: opNeg})
		case "!":
			c.add(instr{op: opNot})
		default:
			c.pop(1)
			c.emitErr("unknown unary operator %q", n.Op)
		}
	case *Binary:
		c.emitBinary(n)
	case *Cond:
		c.emit(n.C)
		jElse := c.add(instr{op: opJmpFalse})
		c.pop(1)
		c.emit(n.A)
		jEnd := c.add(instr{op: opJmp})
		c.patch(jElse)
		c.pop(1) // both branches leave one value; account once
		c.emit(n.B)
		c.patch(jEnd)
	case *Call:
		c.emitCall(n)
	default:
		c.emitErr("unknown node %T", n)
	}
}

func (c *progCompiler) emitBinary(n *Binary) {
	switch n.Op {
	case "&&":
		c.emit(n.L)
		j := c.add(instr{op: opAndShort})
		c.pop(1)
		c.emit(n.R)
		c.add(instr{op: opBool})
		c.patch(j)
		return
	case "||":
		c.emit(n.L)
		j := c.add(instr{op: opOrShort})
		c.pop(1)
		c.emit(n.R)
		c.add(instr{op: opBool})
		c.patch(j)
		return
	}
	c.emit(n.L)
	c.emit(n.R)
	c.pop(1)
	switch n.Op {
	case "+":
		c.add(instr{op: opAdd})
	case "-":
		c.add(instr{op: opSub})
	case "*":
		c.add(instr{op: opMul})
	case "/":
		c.add(instr{op: opDiv, a: c.addErr("division by zero")})
	case "%":
		c.add(instr{op: opMod, a: c.addErr("modulo by zero")})
	case "^":
		c.add(instr{op: opPow})
	case "==":
		c.add(instr{op: opEq})
	case "!=":
		c.add(instr{op: opNe})
	case "<":
		c.add(instr{op: opLt})
	case "<=":
		c.add(instr{op: opLe})
	case ">":
		c.add(instr{op: opGt})
	case ">=":
		c.add(instr{op: opGe})
	default:
		c.pop(1)
		c.emitErr("unknown operator %q", n.Op)
	}
}

func (c *progCompiler) emitCall(n *Call) {
	// Claimed call sites lower to slot reads (or static errors): the
	// plan computes the target before any referencing program runs.
	if c.calls != nil && c.calls.ClaimsCall(n.Name) {
		args := make([]CallArg, len(n.Args))
		for i, a := range n.Args {
			if s, ok := a.(*Str); ok {
				args[i] = CallArg{IsStr: true, Str: s.Value}
			}
		}
		low := c.calls.ResolveCall(n.Name, args)
		if low.Err != nil {
			// The interpreter evaluates the numeric arguments before the
			// host function rejects the call, so their errors come first.
			numeric := 0
			for _, a := range n.Args {
				if _, ok := a.(*Str); !ok {
					c.emit(a)
					numeric++
				}
			}
			c.pop(numeric)
			c.emitErr("%s: %v", n.Name, low.Err)
			return
		}
		c.p.sites = append(c.p.sites, callSite{name: n.Name, wrap: low.Wrap})
		c.slotRead(low.Slot, int32(len(c.p.sites)))
		return
	}
	// Host functions next, shadowing built-ins, exactly like FuncEnv.
	// String literals ride in the argument template; numeric arguments
	// are evaluated onto the stack in order.
	if fn, ok := c.scope.ResolveFunc(n.Name); ok {
		site := callSite{name: n.Name, hfn: fn, tmpl: make([]Value, len(n.Args))}
		numeric := 0
		for i, a := range n.Args {
			if s, ok := a.(*Str); ok {
				site.tmpl[i] = Value{Str: s.Value, IsStr: true}
				continue
			}
			c.emit(a)
			numeric++
		}
		c.p.sites = append(c.p.sites, site)
		c.add(instr{op: opCallH, a: int32(numeric), b: int32(len(c.p.sites) - 1)})
		c.pop(numeric)
		c.push(1)
		return
	}
	// Built-ins: arity is checked before any argument evaluates, as the
	// interpreter does, so a bad-arity call errs even with erring args.
	b, ok := builtins[n.Name]
	if !ok {
		c.emitErr("unknown function %q", n.Name)
		return
	}
	if b.arity >= 0 && len(n.Args) != b.arity {
		c.emitErr("%s expects %d argument(s), got %d", n.Name, b.arity, len(n.Args))
		return
	}
	if b.arity < 0 && len(n.Args) < -b.arity {
		c.emitErr("%s expects at least %d argument(s), got %d", n.Name, -b.arity, len(n.Args))
		return
	}
	for _, a := range n.Args {
		c.emit(a)
	}
	c.p.sites = append(c.p.sites, callSite{name: n.Name, bfn: b.fn})
	c.add(instr{op: opCallB, a: int32(len(n.Args)), b: int32(len(c.p.sites) - 1)})
	c.pop(len(n.Args))
	c.push(1)
}

// Run evaluates the program against a slot vector.  Reading a slot that
// holds Failed raises failed[slot]: unchanged for a variable, wrapped as
// a failing host function for a claimed call; failed may be nil when no
// slot holds Failed.  The scratch space may be nil (a fresh one is
// used); passing a per-goroutine Scratch makes repeated runs
// allocation-free.  Run is safe for concurrent use with distinct
// Scratch values.
func (p *Program) Run(slots []float64, failed []error, s *Scratch) (float64, error) {
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.stack) < p.maxStack {
		s.stack = make([]float64, p.maxStack)
	}
	stack := s.stack[:cap(s.stack)]
	sp := 0
	code := p.code
	for i := 0; i < len(code); i++ {
		in := &code[i]
		switch in.op {
		case opConst:
			stack[sp] = in.val
			sp++
		case opSlot:
			v := slots[in.a]
			if IsFailed(v) {
				return 0, p.failedRead(in, failed)
			}
			stack[sp] = v
			sp++
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opNot:
			if stack[sp-1] == 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opBool:
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opAdd:
			sp--
			stack[sp-1] = stack[sp-1] + stack[sp]
		case opSub:
			sp--
			stack[sp-1] = stack[sp-1] - stack[sp]
		case opMul:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp]
		case opDiv:
			sp--
			if stack[sp] == 0 {
				return 0, p.errs[in.a]
			}
			stack[sp-1] = stack[sp-1] / stack[sp]
		case opMod:
			sp--
			if stack[sp] == 0 {
				return 0, p.errs[in.a]
			}
			stack[sp-1] = math.Mod(stack[sp-1], stack[sp])
		case opPow:
			sp--
			stack[sp-1] = math.Pow(stack[sp-1], stack[sp])
		case opEq:
			sp--
			stack[sp-1] = b2f(stack[sp-1] == stack[sp])
		case opNe:
			sp--
			stack[sp-1] = b2f(stack[sp-1] != stack[sp])
		case opLt:
			sp--
			stack[sp-1] = b2f(stack[sp-1] < stack[sp])
		case opLe:
			sp--
			stack[sp-1] = b2f(stack[sp-1] <= stack[sp])
		case opGt:
			sp--
			stack[sp-1] = b2f(stack[sp-1] > stack[sp])
		case opGe:
			sp--
			stack[sp-1] = b2f(stack[sp-1] >= stack[sp])
		case opAndShort:
			if stack[sp-1] == 0 {
				stack[sp-1] = 0
				i = int(in.a) - 1
			} else {
				sp--
			}
		case opOrShort:
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
				i = int(in.a) - 1
			} else {
				sp--
			}
		case opJmp:
			i = int(in.a) - 1
		case opJmpFalse:
			sp--
			if stack[sp] == 0 {
				i = int(in.a) - 1
			}
		case opCallB:
			site := &p.sites[in.b]
			argc := int(in.a)
			v, err := site.bfn(stack[sp-argc : sp])
			if err != nil {
				return 0, &EvalError{Expr: p.src, Msg: fmt.Sprintf("%s: %v", site.name, err)}
			}
			sp -= argc
			stack[sp] = v
			sp++
		case opCallH:
			site := &p.sites[in.b]
			argc := int(in.a)
			vals := append(s.vals[:0], site.tmpl...)
			s.vals = vals[:0]
			base := sp - argc
			k := 0
			for j := range vals {
				if !vals[j].IsStr {
					vals[j].Num = stack[base+k]
					k++
				}
			}
			v, err := site.hfn(vals)
			if err != nil {
				return 0, &EvalError{Expr: p.src, Msg: fmt.Sprintf("%s: %v", site.name, err)}
			}
			sp = base
			stack[sp] = v
			sp++
		case opErr:
			return 0, p.errs[in.a]
		}
	}
	return stack[sp-1], nil
}

// failedRead is the error a read of a Failed slot raises.
func (p *Program) failedRead(in *instr, failed []error) error {
	err := failed[in.a]
	if in.b == 0 {
		return err
	}
	site := &p.sites[in.b-1]
	if site.wrap != nil {
		err = site.wrap(err)
	}
	return &EvalError{Expr: p.src, Msg: fmt.Sprintf("%s: %v", site.name, err)}
}
