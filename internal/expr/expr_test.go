package expr

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func evalStr(t *testing.T, src string, env Env) float64 {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	env := MapEnv{"x": 3, "y": 4, "f": 2e6, "VDD": 1.5}
	cases := []struct {
		src  string
		want float64
	}{
		{"1+2", 3},
		{"2*3+4", 10},
		{"2+3*4", 14},
		{"(2+3)*4", 20},
		{"10/4", 2.5},
		{"10%4", 2},
		{"2^10", 1024},
		{"2^3^2", 512}, // right associative
		{"-x", -3},
		{"--x", 3},
		{"+x", 3},
		{"x*y", 12},
		{"f/16", 125e3},
		{"f/32", 62.5e3},
		{"VDD^2", 2.25},
		{"253fF*8*8", 253e-15 * 64},
		{"2MHz", 2e6},
		{"1.5 * 100u", 1.5e-4},
		{"x + -y", -1},
		{"2Meg/4", 5e5},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, env); math.Abs(got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	env := MapEnv{"a": 1, "b": 2}
	cases := []struct {
		src  string
		want float64
	}{
		{"a < b", 1},
		{"a > b", 0},
		{"a <= 1", 1},
		{"b >= 3", 0},
		{"a == 1", 1},
		{"a != 1", 0},
		{"a < b && b < 3", 1},
		{"a > b || b == 2", 1},
		{"!(a < b)", 0},
		{"!0", 1},
		{"a < b ? 10 : 20", 10},
		{"a > b ? 10 : 20", 20},
		{"a == 1 ? b == 2 ? 1 : 2 : 3", 1}, // nested ternary
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, env); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Right side of && and || must not be evaluated when not needed:
	// an unbound variable would otherwise fail.
	env := MapEnv{"zero": 0, "one": 1}
	if got := evalStr(t, "zero && nosuch", env); got != 0 {
		t.Errorf("zero && nosuch = %v", got)
	}
	if got := evalStr(t, "one || nosuch", env); got != 1 {
		t.Errorf("one || nosuch = %v", got)
	}
	// But they are evaluated when required.
	e := MustCompile("one && nosuch")
	if _, err := e.Eval(env); err == nil {
		t.Error("one && nosuch should fail on unbound variable")
	}
}

func TestBuiltins(t *testing.T) {
	env := MapEnv{"x": -4}
	cases := []struct {
		src  string
		want float64
	}{
		{"abs(x)", 4},
		{"sqrt(16)", 4},
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"min(5)", 5},
		{"pow(2, 8)", 256},
		{"log2(4096)", 12},
		{"log10(1000)", 3},
		{"log(100)", 2},
		{"ln(1)", 0},
		{"exp(0)", 1},
		{"floor(2.9)", 2},
		{"ceil(2.1)", 3},
		{"round(2.5)", 3},
		{"if(1, 10, 20)", 10},
		{"if(0, 10, 20)", 20},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, env); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

type testFuncEnv struct {
	MapEnv
	calls []string
}

func (f *testFuncEnv) Func(name string) (Func, bool) {
	if name != "power" && name != "area" {
		return nil, false
	}
	return func(args []Value) (float64, error) {
		if len(args) != 1 || !args[0].IsStr {
			return 0, fmt.Errorf("want one string arg")
		}
		f.calls = append(f.calls, name+":"+args[0].Str)
		if name == "power" {
			return 0.5, nil
		}
		return 2e-6, nil
	}, true
}

func TestHostFunctions(t *testing.T) {
	env := &testFuncEnv{MapEnv: MapEnv{"eta": 0.8}}
	// The paper's DC-DC converter: Pdiss = Pload (1-eta)/eta.
	got := evalStr(t, `power("radio") * (1-eta)/eta`, env)
	if math.Abs(got-0.125) > 1e-12 {
		t.Errorf("converter dissipation = %v, want 0.125", got)
	}
	if len(env.calls) != 1 || env.calls[0] != "power:radio" {
		t.Errorf("calls = %v", env.calls)
	}
	// Host functions shadow builtins only by name; builtins still work.
	if v := evalStr(t, `area("chip") + abs(-1)`, env); math.Abs(v-(2e-6+1)) > 1e-12 {
		t.Errorf("mixed host/builtin = %v", v)
	}
}

func TestHostFunctionError(t *testing.T) {
	env := &testFuncEnv{}
	e := MustCompile(`power(3)`)
	if _, err := e.Eval(env); err == nil {
		t.Error("power(3) should fail: numeric arg to string-expecting host func")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "* 2", "(1+2", "1+2)", "foo(", "foo(1,", "1 ? 2", "1 ? 2 :",
		"$x", "1..2", `"unterminated`, "a @ b", "2 3",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		} else {
			var se *SyntaxError
			if !asSyntax(err, &se) {
				t.Errorf("Compile(%q): error %v is not a SyntaxError", src, err)
			}
		}
	}
}

func asSyntax(err error, out **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestEvalErrors(t *testing.T) {
	env := MapEnv{"x": 1}
	bad := []string{
		"nosuch", "1/0", "5%0", "nosuchfn(1)", "min()", "sqrt(1,2)", `"str" + 1`,
		"abs(nosuch)", "if(1,2)",
	}
	for _, src := range bad {
		e, err := Compile(src)
		if err != nil {
			if src == "min()" {
				continue // arity 0 call parses; eval or parse failure both acceptable
			}
			t.Errorf("Compile(%q): unexpected %v", src, err)
			continue
		}
		if _, err := e.Eval(env); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestConst(t *testing.T) {
	if v, ok := MustCompile("2*3 + 4").Const(); !ok || v != 10 {
		t.Errorf("Const = %v, %v", v, ok)
	}
	if _, ok := MustCompile("x+1").Const(); ok {
		t.Error("x+1 should not be const")
	}
	if _, ok := MustCompile("min(1,2)").Const(); ok {
		t.Error("calls are not considered const (host may shadow)")
	}
}

func TestStringRoundTrip(t *testing.T) {
	// String() must re-serialize to an equivalent expression.
	srcs := []string{
		"1 + 2*3",
		"(1+2)*3",
		"f/16",
		"253fF * bwA * bwB",
		"a < b ? x : y + 1",
		`power("radio") * (1-eta)/eta`,
		"-x^2",
		"!a && b",
		"min(1, 2, x)",
		"2^3^2",
	}
	env := &testFuncEnv{MapEnv: MapEnv{
		"f": 2e6, "bwA": 8, "bwB": 8, "a": 1, "b": 2, "x": 3, "y": 4, "eta": 0.8,
	}}
	for _, src := range srcs {
		e1 := MustCompile(src)
		printed := e1.String()
		e2, err := Compile(printed)
		if err != nil {
			t.Errorf("re-Compile(%q) from %q: %v", printed, src, err)
			continue
		}
		v1, err1 := e1.Eval(env)
		v2, err2 := e2.Eval(env)
		if err1 != nil || err2 != nil {
			t.Errorf("%q: eval errs %v / %v", src, err1, err2)
			continue
		}
		if math.Abs(v1-v2) > 1e-12*math.Max(1, math.Abs(v1)) {
			t.Errorf("%q: %v != reprinted %q: %v", src, v1, printed, v2)
		}
	}
}

func TestLiteral(t *testing.T) {
	e := Literal(253e-15, "253fF")
	if v, ok := e.Const(); !ok || v != 253e-15 {
		t.Errorf("Literal Const = %v, %v", v, ok)
	}
	if e.String() != "253fF" {
		t.Errorf("Literal String = %q", e.String())
	}
	if Literal(2.5, "").String() != "2.5" {
		t.Errorf("auto text = %q", Literal(2.5, "").String())
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad input")
		}
	}()
	MustCompile("1 +")
}

// Property: for random well-formed sums of variables, evaluation matches
// direct computation.
func TestQuickSums(t *testing.T) {
	f := func(a, b, c float64) bool {
		if anyBad(a, b, c) {
			return true
		}
		env := MapEnv{"a": a, "b": b, "c": c}
		e := MustCompile("a*b + c - a/2")
		got, err := e.Eval(env)
		if err != nil {
			return false
		}
		want := a*b + c - a/2
		return got == want || math.Abs(got-want) <= 1e-9*math.Abs(want) ||
			(math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: reprint/reparse is a fixpoint — String of the reparsed tree
// equals String of the original.
func TestQuickReprintFixpoint(t *testing.T) {
	pieces := []string{"a", "b", "1", "2.5", "min(a, b)", "f/16", "(a + b)"}
	ops := []string{" + ", " - ", " * ", " / ", " ^ "}
	f := func(i1, i2, i3, o1, o2 uint8) bool {
		src := pieces[int(i1)%len(pieces)] + ops[int(o1)%len(ops)] +
			pieces[int(i2)%len(pieces)] + ops[int(o2)%len(ops)] +
			pieces[int(i3)%len(pieces)]
		e1, err := Compile(src)
		if err != nil {
			return false
		}
		p1 := e1.String()
		e2, err := Compile(p1)
		if err != nil {
			return false
		}
		return e2.String() == p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Compile("1 + $")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "offset 4") {
		t.Errorf("error should carry position: %v", err)
	}
}

func TestDottedIdentifiers(t *testing.T) {
	env := MapEnv{"lut.words": 4096, "lut.bits": 6}
	if got := evalStr(t, "lut.words * lut.bits", env); got != 24576 {
		t.Errorf("dotted = %v", got)
	}
}

func TestEngineeringSuffixVsIdent(t *testing.T) {
	// "2f" is two femto; "f" alone is a variable.
	env := MapEnv{"f": 2e6}
	if got := evalStr(t, "2f", env); got != 2e-15 {
		t.Errorf("2f = %v", got)
	}
	if got := evalStr(t, "2*f", env); got != 4e6 {
		t.Errorf("2*f = %v", got)
	}
}
