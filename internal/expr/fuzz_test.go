package expr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Compile must never panic, whatever bytes arrive from a web form.
func TestQuickCompileNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("panic on %q", src)
				ok = false
			}
		}()
		e, err := Compile(src)
		if err != nil {
			return true
		}
		// If it compiled, printing and re-parsing must also work.
		printed := e.String()
		if _, err := Compile(printed); err != nil {
			t.Logf("reprint of %q -> %q fails: %v", src, printed, err)
			return false
		}
		// Evaluation may fail (unbound vars) but must not panic.
		_, _ = e.Eval(EmptyEnv{})
		_, _ = e.Const()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Pathologically nested input must fail cleanly, not exhaust the
// stack: these strings arrive straight from web forms.
func TestDeepNestingRejected(t *testing.T) {
	cases := []string{
		strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000),
		strings.Repeat("-", 100000) + "1",
		strings.Repeat("!", 100000) + "1",
		strings.Repeat("min(", 50000) + "1" + strings.Repeat(")", 50000),
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("deeply nested input should be rejected (len %d)", len(src))
		} else if !strings.Contains(err.Error(), "nests deeper") {
			t.Errorf("want depth error, got %v", err)
		}
	}
	// Reasonable nesting still parses.
	ok := strings.Repeat("(", 50) + "1" + strings.Repeat(")", 50)
	if _, err := Compile(ok); err != nil {
		t.Errorf("50 levels should parse: %v", err)
	}
}

// randomExprSrc generates a random well-formed expression source over
// the given variable names (plus the occasional unbound name and
// division by a zero-valued variable, so the error paths are exercised
// too).
func randomExprSrc(rng *rand.Rand, vars []string, depth int) string {
	if depth <= 0 || rng.Intn(6) == 0 {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%g", float64(rng.Intn(20))/4)
		case 1:
			return fmt.Sprintf("%ge%d", 1+float64(rng.Intn(9)), rng.Intn(7)-3)
		case 2:
			if rng.Intn(12) == 0 {
				return "ghost" // unbound: must fail identically both ways
			}
			return vars[rng.Intn(len(vars))]
		default:
			return vars[rng.Intn(len(vars))]
		}
	}
	sub := func() string { return randomExprSrc(rng, vars, depth-1) }
	switch rng.Intn(12) {
	case 0:
		return "(" + sub() + " + " + sub() + ")"
	case 1:
		return "(" + sub() + " - " + sub() + ")"
	case 2:
		return "(" + sub() + " * " + sub() + ")"
	case 3:
		return "(" + sub() + " / " + sub() + ")"
	case 4:
		return "(" + sub() + " ^ " + sub() + ")"
	case 5:
		return "(-" + sub() + ")"
	case 6:
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return "(" + sub() + " " + ops[rng.Intn(len(ops))] + " " + sub() + ")"
	case 7:
		ops := []string{"&&", "||"}
		return "(" + sub() + " " + ops[rng.Intn(len(ops))] + " " + sub() + ")"
	case 8:
		return "(" + sub() + " ? " + sub() + " : " + sub() + ")"
	case 9:
		fns := []string{"abs", "sqrt", "ln", "log2", "floor", "ceil", "round", "exp"}
		return fns[rng.Intn(len(fns))] + "(" + sub() + ")"
	case 10:
		fns := []string{"min", "max", "pow"}
		return fns[rng.Intn(len(fns))] + "(" + sub() + ", " + sub() + ")"
	default:
		return "!(" + sub() + ")"
	}
}

// TestQuickProgramMatchesEval is the compiled pipeline's property test:
// for random expressions over random environments, CompileProgram +
// Run must produce exactly what Expr.Eval produces — same values (NaN
// included), same errors, same messages.  This is the expression-level
// half of the plan equivalence contract in internal/core/sheet.
func TestQuickProgramMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	vars := []string{"a", "b", "c", "zero", "f"}
	for i := 0; i < 4000; i++ {
		src := randomExprSrc(rng, vars, 4)
		e, err := Compile(src)
		if err != nil {
			t.Fatalf("generator produced unparsable %q: %v", src, err)
		}
		env := MapEnv{
			"a":    float64(rng.Intn(41)-20) / 4,
			"b":    rng.Float64()*10 - 5,
			"c":    float64(rng.Intn(5)),
			"zero": 0,
			"f":    2e6,
		}
		treeV, treeErr := e.Eval(env)
		r := newMapResolver(env, nil)
		p := CompileProgram(e, r)
		progV, progErr := p.Run(r.vec, nil, nil)
		if (treeErr == nil) != (progErr == nil) {
			t.Fatalf("%q over %v: tree err %v, program err %v", src, env, treeErr, progErr)
		}
		if treeErr != nil {
			if treeErr.Error() != progErr.Error() {
				t.Fatalf("%q over %v: tree error %q, program error %q", src, env, treeErr, progErr)
			}
			continue
		}
		same := treeV == progV || (treeV != treeV && progV != progV) // NaN == NaN for our purposes
		if !same {
			t.Fatalf("%q over %v: tree %v, program %v", src, env, treeV, progV)
		}
	}
}

// Evaluation of a compiled expression is deterministic.
func TestQuickEvalDeterministic(t *testing.T) {
	env := MapEnv{"a": 3, "b": 5, "f": 2e6}
	srcs := []string{
		"a*b + f/16", "min(a, b) ^ 2", "a < b ? f : 0", "abs(a - b*f)",
	}
	f := func(pick uint8) bool {
		e := MustCompile(srcs[int(pick)%len(srcs)])
		v1, err1 := e.Eval(env)
		v2, err2 := e.Eval(env)
		return err1 == nil && err2 == nil && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
