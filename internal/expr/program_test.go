package expr

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// mapResolver adapts a MapEnv to the compile-time Resolver interface:
// each bound name gets a slot, in sorted order.
type mapResolver struct {
	slots map[string]int
	vec   []float64
	funcs map[string]Func
}

func newMapResolver(env MapEnv, funcs map[string]Func) *mapResolver {
	r := &mapResolver{slots: map[string]int{}, funcs: funcs}
	for name, v := range env {
		r.slots[name] = len(r.vec)
		r.vec = append(r.vec, v)
	}
	return r
}

func (r *mapResolver) ResolveVar(name string) (int, bool) {
	s, ok := r.slots[name]
	return s, ok
}

func (r *mapResolver) ResolveFunc(name string) (Func, bool) {
	f, ok := r.funcs[name]
	return f, ok
}

// funcMapEnv pairs a MapEnv with host functions for the tree
// interpreter side of equivalence checks.
type funcMapEnv struct {
	MapEnv
	funcs map[string]Func
}

func (e funcMapEnv) Func(name string) (Func, bool) {
	f, ok := e.funcs[name]
	return f, ok
}

// runBoth evaluates src through the interpreter and the compiled
// program and requires identical outcomes.
func runBoth(t *testing.T, src string, env MapEnv, funcs map[string]Func) (float64, error) {
	t.Helper()
	e := MustCompile(src)
	var treeV float64
	var treeErr error
	if funcs == nil {
		treeV, treeErr = e.Eval(env)
	} else {
		treeV, treeErr = e.Eval(funcMapEnv{env, funcs})
	}
	r := newMapResolver(env, funcs)
	p := CompileProgram(e, r)
	progV, progErr := p.Run(r.vec, nil, nil)
	if (treeErr == nil) != (progErr == nil) {
		t.Fatalf("%q: tree err %v, program err %v", src, treeErr, progErr)
	}
	if treeErr == nil && treeV != progV && !(treeV != treeV && progV != progV) {
		t.Fatalf("%q: tree %v, program %v", src, treeV, progV)
	}
	if treeErr != nil && treeErr.Error() != progErr.Error() {
		t.Fatalf("%q: tree error %q, program error %q", src, treeErr, progErr)
	}
	return treeV, treeErr
}

func TestProgramMatchesInterpreter(t *testing.T) {
	env := MapEnv{"a": 3, "b": 5, "f": 2e6, "zero": 0, "neg": -2.5}
	srcs := []string{
		"1 + 2*3",
		"a*b + f/16",
		"a - b - 2",
		"-a ^ 2",
		"2 ^ 3 ^ 2",
		"a % 2",
		"b % zero",
		"a / zero",
		"min(a, b, neg)",
		"max(a, b) + min(1, 2)",
		"abs(neg) + sqrt(16)",
		"floor(2.7) + ceil(2.2) + round(2.5)",
		"ln(exp(1))",
		"log(100) + log2(8) + log10(1000)",
		"pow(2, 10)",
		"if(a > b, 1, 2)",
		"a > b ? 1 : 2",
		"a < b ? f : 1/zero",
		"zero != 0 ? 1/zero : 7",
		"a && b",
		"zero && 1/zero",
		"a || 1/zero",
		"zero || b",
		"!zero + !a",
		"a == 3 && b == 5",
		"a != 3 || b != 5",
		"a <= 3",
		"a >= 4",
		"nosuchvar + 1",
		"nosuchfn(3)",
		"min()",
		"sqrt(1, 2)",
		"sqrt(-1)",
		"1/0",
		"5%0",
		"0 ? 1/0 : 42",
		"1 ? 42 : 1/0",
		"\"text\" + 1",
		"2 + 3*4 - sqrt(49)", // fully constant: folded
		"a + 2*3",            // constant subtree folded
	}
	for _, src := range srcs {
		runBoth(t, src, env, nil)
	}
}

func TestProgramHostFunctions(t *testing.T) {
	funcs := map[string]Func{
		"scale": func(args []Value) (float64, error) {
			if len(args) != 2 {
				return 0, fmt.Errorf("scale takes 2 args")
			}
			v, err := args[0].Float()
			if err != nil {
				return 0, err
			}
			k, err := args[1].Float()
			if err != nil {
				return 0, err
			}
			return v * k, nil
		},
		"tag": func(args []Value) (float64, error) {
			if len(args) != 2 || !args[0].IsStr {
				return 0, fmt.Errorf("tag wants (string, number)")
			}
			v, _ := args[1].Float()
			return float64(len(args[0].Str)) + v, nil
		},
		// A host function shadowing a built-in name must win, exactly
		// as FuncEnv shadows builtins during interpretation.
		"min": func(args []Value) (float64, error) { return 42, nil },
	}
	env := MapEnv{"a": 3, "b": 7}
	srcs := []string{
		"scale(a, 4)",
		"scale(a, 4) + scale(b, 2)",
		"scale(scale(a, 2), 3)",
		`tag("radio", a)`,
		`tag("radio", scale(b, 2))`,
		"min(a, b)",     // shadowed: returns 42
		"scale(a)",      // host error
		`tag(a, b)`,     // host error (wants string)
		"scale(1/0, 2)", // arg error beats host call
	}
	for _, src := range srcs {
		runBoth(t, src, env, funcs)
	}
}

// slotCallResolver lowers metric("name") calls to slot reads, the way
// the sheet plan lowers power("row").
type slotCallResolver struct {
	*mapResolver
	metricSlot int
}

func (r *slotCallResolver) ClaimsCall(name string) bool { return name == "metric" }

func (r *slotCallResolver) ResolveCall(name string, args []CallArg) CallLowering {
	if len(args) != 1 || !args[0].IsStr {
		return CallLowering{Err: &EvalError{Expr: "", Msg: "metric() takes one quoted name"}}
	}
	return CallLowering{Slot: r.metricSlot}
}

func TestProgramSlotCalls(t *testing.T) {
	env := MapEnv{"a": 3}
	mr := newMapResolver(env, nil)
	mr.vec = append(mr.vec, 123.5) // the precomputed metric value
	r := &slotCallResolver{mapResolver: mr, metricSlot: len(mr.vec) - 1}
	e := MustCompile(`metric("radio") * 2 + a`)
	p := CompileProgram(e, r)
	v, err := p.Run(mr.vec, nil, nil)
	if err != nil || v != 123.5*2+3 {
		t.Fatalf("slot call: got %v, %v", v, err)
	}
	// A malformed site errs when reached, and only when reached.
	e = MustCompile(`a > 100 ? metric(1) : 7`)
	p = CompileProgram(e, r)
	if v, err := p.Run(mr.vec, nil, nil); err != nil || v != 7 {
		t.Fatalf("guarded bad site: got %v, %v", v, err)
	}
	e = MustCompile(`metric(1)`)
	p = CompileProgram(e, r)
	if _, err := p.Run(mr.vec, nil, nil); err == nil || !strings.Contains(err.Error(), "quoted name") {
		t.Fatalf("bad site: got %v", err)
	}
}

// TestProgramFailedSlots: a slot holding Failed raises its stored error
// only when read — unchanged for a variable, wrapped like a failing host
// function for a claimed call — and a plain NaN is just a value.
func TestProgramFailedSlots(t *testing.T) {
	mr := newMapResolver(MapEnv{"a": 3, "g": 0}, nil)
	mr.vec = append(mr.vec, 0)
	r := &slotCallResolver{mapResolver: mr, metricSlot: len(mr.vec) - 1}
	failed := make([]error, len(mr.vec))
	stored := errors.New("stored failure")
	mr.vec[mr.slots["g"]], failed[mr.slots["g"]] = Failed, stored
	mr.vec[r.metricSlot], failed[r.metricSlot] = Failed, stored
	run := func(src string) (float64, error) {
		return CompileProgram(MustCompile(src), r).Run(mr.vec, failed, nil)
	}
	if v, err := run("a > 1 ? a : g"); err != nil || v != 3 {
		t.Fatalf("untaken failed read: got %v, %v", v, err)
	}
	if _, err := run("a + g"); err != stored {
		t.Fatalf("variable read: got %v, want the stored error itself", err)
	}
	want := `expr: metric: stored failure evaluating "1 + metric(\"x\")"`
	if _, err := run(`1 + metric("x")`); err == nil || err.Error() != want {
		t.Fatalf("call read: got %v, want %s", err, want)
	}
	mr.vec[mr.slots["g"]] = math.NaN()
	if v, err := run("g"); err != nil || !math.IsNaN(v) || IsFailed(v) {
		t.Fatalf("plain NaN: got %v, %v", v, err)
	}
}

func TestProgramSlotsReported(t *testing.T) {
	env := MapEnv{"a": 1, "b": 2, "c": 3}
	r := newMapResolver(env, nil)
	e := MustCompile("a + b*a")
	p := CompileProgram(e, r)
	want := map[int]bool{r.slots["a"]: true, r.slots["b"]: true}
	if len(p.Slots()) != 2 || !want[p.Slots()[0]] || !want[p.Slots()[1]] {
		t.Fatalf("slots: got %v, want keys of %v", p.Slots(), want)
	}
}

func TestProgramScratchReuse(t *testing.T) {
	env := MapEnv{"a": 3, "b": 5}
	r := newMapResolver(env, nil)
	p := CompileProgram(MustCompile("min(a, b, 10) + a*b"), r)
	var s Scratch
	if _, err := p.Run(r.vec, nil, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Run(r.vec, nil, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %v per call with warm scratch", allocs)
	}
}
