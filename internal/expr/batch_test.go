package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchEnv builds a resolver over the named slots plus a column matrix
// of the given width, every column filled by gen(slot, point).
func batchEnv(names []string, width int, gen func(slot, point int) float64) (*mapResolver, [][]float64) {
	env := MapEnv{}
	for _, n := range names {
		env[n] = 0
	}
	r := newMapResolver(env, nil)
	cols := make([][]float64, len(r.vec))
	for s := range cols {
		cols[s] = make([]float64, width)
		for i := range cols[s] {
			cols[s][i] = gen(s, i)
		}
	}
	return r, cols
}

// checkBatchMatchesRun is the equivalence oracle: it runs the program
// once per point through Run and once columnar through RunBatch, and
// enforces the RunBatch contract — bit-identical values when every
// point succeeds, an error (whose text matches some failing point's
// scalar error) when any point fails.
func checkBatchMatchesRun(t *testing.T, p *Program, cols [][]float64, width int) {
	t.Helper()
	if !p.Batchable() {
		t.Fatalf("%q: program not batchable", p.src)
	}
	vec := make([]float64, len(cols))
	var scratch Scratch
	want := make([]float64, width)
	errTexts := map[string]int{} // scalar error text -> first failing point
	for i := 0; i < width; i++ {
		for s := range cols {
			vec[s] = cols[s][i]
		}
		v, err := p.Run(vec, nil, &scratch)
		if err != nil {
			if _, seen := errTexts[err.Error()]; !seen {
				errTexts[err.Error()] = i
			}
			continue
		}
		want[i] = v
	}
	dst := make([]float64, width)
	var bs BatchScratch
	batchErr := p.RunBatch(cols, dst, width, &bs)
	if len(errTexts) > 0 {
		if batchErr == nil {
			t.Fatalf("%q: %d scalar points fail but RunBatch succeeds", p.src, len(errTexts))
		}
		if _, ok := errTexts[batchErr.Error()]; !ok {
			t.Fatalf("%q: batch error %q matches no scalar point error %v", p.src, batchErr, errTexts)
		}
		return
	}
	if batchErr != nil {
		t.Fatalf("%q: every scalar point succeeds but RunBatch fails: %v", p.src, batchErr)
	}
	for i := 0; i < width; i++ {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%q point %d: scalar %v (%#x), batch %v (%#x)",
				p.src, i, want[i], math.Float64bits(want[i]), dst[i], math.Float64bits(dst[i]))
		}
	}
}

func TestBatchable(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"a + b*2", true},
		{"sqrt(a) + pow(b, 2)", true},
		{"min(a, b, 3) + max(a, 1)", true},
		{"a > b", true},
		{"a/b + a%b", true},
		{"a && b", false}, // short-circuit: per-point branch
		{"a || b", false},
		{"a > 1 ? b : 2", false}, // conditional: per-point branch
	}
	env := MapEnv{"a": 1, "b": 2}
	for _, c := range cases {
		r := newMapResolver(env, nil)
		p := CompileProgram(MustCompile(c.src), r)
		if got := p.Batchable(); got != c.want {
			t.Errorf("Batchable(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestRunBatchMatchesRun pins the equivalence contract on a fixed suite
// covering every batchable opcode, with column data that includes
// zeros, negatives, non-finite values and domain-error inputs.
func TestRunBatchMatchesRun(t *testing.T) {
	srcs := []string{
		"a + b - c*d",
		"-a ^ 2",
		"2 ^ a ^ 0.5",
		"a / b",   // fails where b == 0
		"a % b",   // fails where b == 0
		"a / 2.5", // never fails
		"a == b",
		"a != b",
		"a < b",
		"a <= b",
		"a > b",
		"a >= b",
		"!a + !!b",
		"abs(a) + sqrt(abs(b))",
		"sqrt(a)", // NaN where a < 0
		"ln(a) + log10(abs(b) + 1)",
		"exp(-(a*a)) * c",
		"floor(a) + ceil(b) + round(c)",
		"min(a, b, c) * max(a, d)",
		"pow(a, b)",
		"log2(abs(d) + 0.5)",
		"a*1e6 + b/1e3",
		"3.25",      // constant-folded to a single opConst
		"sqrt(-1)",  // constant-folded NaN
		"1/0",       // constant-folded to opErr: fails at point 0
		"a + 1/0",   // opErr behind real code
		"nosuch(a)", // unresolved call compiles to opErr
	}
	vals := []float64{0, 1, -1, 2.5, -3.75, 0.5, 1e9, -1e-9,
		math.Inf(1), math.Inf(-1), math.NaN(), 3, -0.0, 7.125}
	const width = len("................") // 16 points, > len(vals) to wrap
	for _, src := range srcs {
		r, cols := batchEnv([]string{"a", "b", "c", "d"}, width, func(s, i int) float64 {
			return vals[(s*5+i*3)%len(vals)]
		})
		p := CompileProgram(MustCompile(src), r)
		checkBatchMatchesRun(t, p, cols, width)
	}
}

// TestRunBatchHostFunctions covers the opCallH gather path, including a
// host error surfacing with the scalar error text.
func TestRunBatchHostFunctions(t *testing.T) {
	funcs := map[string]Func{
		"scale": func(args []Value) (float64, error) {
			v, _ := args[0].Float()
			k, _ := args[1].Float()
			return v * k, nil
		},
		"strict": func(args []Value) (float64, error) {
			v, _ := args[0].Float()
			if v < 0 {
				return 0, fmt.Errorf("negative input %g", v)
			}
			return v, nil
		},
	}
	env := MapEnv{"a": 0, "b": 0}
	mk := func(src string) (*Program, *mapResolver) {
		r := newMapResolver(env, funcs)
		return CompileProgram(MustCompile(src), r), r
	}
	width := 8
	fill := func(r *mapResolver, gen func(s, i int) float64) [][]float64 {
		cols := make([][]float64, len(r.vec))
		for s := range cols {
			cols[s] = make([]float64, width)
			for i := range cols[s] {
				cols[s][i] = gen(s, i)
			}
		}
		return cols
	}
	p, r := mk(`scale(a, 2) + scale(b, a)`)
	checkBatchMatchesRun(t, p, fill(r, func(s, i int) float64 { return float64(s+i) - 2 }), width)
	p, r = mk(`strict(a) + b`)
	checkBatchMatchesRun(t, p, fill(r, func(s, i int) float64 { return float64(i) - 3.5 }), width)
}

// randExpr emits a random straight-line expression of bounded depth
// over the given variable names: every batchable operator and builtin,
// no short-circuit or conditional forms.
func randExpr(rng *rand.Rand, names []string, depth int) string {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			return names[rng.Intn(len(names))]
		case 1:
			return fmt.Sprintf("%.4g", (rng.Float64()-0.5)*20)
		default:
			return fmt.Sprintf("%d", rng.Intn(7))
		}
	}
	a := randExpr(rng, names, depth-1)
	b := randExpr(rng, names, depth-1)
	switch rng.Intn(14) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / %s)", a, b)
	case 4:
		return fmt.Sprintf("(%s %% %s)", a, b)
	case 5:
		return fmt.Sprintf("(%s ^ 2)", a)
	case 6:
		return fmt.Sprintf("(-%s)", a)
	case 7:
		return fmt.Sprintf("(%s %s %s)", a,
			[]string{"==", "!=", "<", "<=", ">", ">="}[rng.Intn(6)], b)
	case 8:
		return fmt.Sprintf("min(%s, %s)", a, b)
	case 9:
		return fmt.Sprintf("max(%s, %s)", a, b)
	case 10:
		return fmt.Sprintf("abs(%s)", a)
	case 11:
		return fmt.Sprintf("sqrt(abs(%s))", a)
	case 12:
		return fmt.Sprintf("%s(%s)", []string{"floor", "ceil", "round", "exp"}[rng.Intn(4)], a)
	default:
		return fmt.Sprintf("pow(%s, %s)", a, b)
	}
}

// TestQuickRunBatchMatchesRun drives the oracle with randomized
// programs over randomized point vectors: the property-based half of
// the equivalence story.
func TestQuickRunBatchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	names := []string{"a", "b", "c", "d", "e"}
	for iter := 0; iter < 300; iter++ {
		src := randExpr(rng, names, 4)
		width := 1 + rng.Intn(64)
		r, cols := batchEnv(names, width, func(s, i int) float64 {
			switch rng.Intn(6) {
			case 0:
				return 0 // provoke division/modulo failures
			case 1:
				return float64(rng.Intn(5) - 2)
			case 2:
				return math.Inf(2*rng.Intn(2) - 1)
			default:
				return (rng.Float64() - 0.5) * 1e3
			}
		})
		p := CompileProgram(MustCompile(src), r)
		checkBatchMatchesRun(t, p, cols, width)
	}
}

// FuzzRunBatch feeds arbitrary sources and point data through the
// equivalence oracle; the seed corpus covers every batch opcode family.
// Non-compiling sources and non-batchable programs are skipped — the
// property under test is Run/RunBatch agreement, not parsing.
func FuzzRunBatch(f *testing.F) {
	f.Add("a + b*c", 1.5, -2.0, 0.0)
	f.Add("a / b + a % c", 3.0, 0.0, 2.0)
	f.Add("sqrt(a) + pow(b, c)", -1.0, 2.0, 10.0)
	f.Add("min(a, b, c) * max(a, -b)", 0.5, 1e9, -3.25)
	f.Add("1/0 + a", 1.0, 2.0, 3.0)
	f.Add("(a < b) + (b >= c) + !a", 0.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, src string, va, vb, vc float64) {
		e, err := Compile(src)
		if err != nil {
			t.Skip()
		}
		env := MapEnv{"a": 0, "b": 0, "c": 0}
		r := newMapResolver(env, nil)
		p := CompileProgram(e, r)
		if !p.Batchable() {
			t.Skip()
		}
		const width = 9
		seeds := []float64{va, vb, vc}
		cols := make([][]float64, len(r.vec))
		for s := range cols {
			cols[s] = make([]float64, width)
			for i := range cols[s] {
				cols[s][i] = seeds[(s+i)%len(seeds)] * float64(1+i%3)
			}
		}
		checkBatchMatchesRun(t, p, cols, width)
	})
}

// TestRunBatchScratchReuse pins the allocation story: a warm
// BatchScratch makes columnar evaluation allocation-free.
func TestRunBatchScratchReuse(t *testing.T) {
	env := MapEnv{"a": 0, "b": 0}
	r := newMapResolver(env, nil)
	p := CompileProgram(MustCompile("min(a, b, 10) + a*b/2.5"), r)
	const width = 256
	cols := make([][]float64, len(r.vec))
	for s := range cols {
		cols[s] = make([]float64, width)
		for i := range cols[s] {
			cols[s][i] = float64(s + i + 1)
		}
	}
	dst := make([]float64, width)
	var bs BatchScratch
	if err := p.RunBatch(cols, dst, width, &bs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.RunBatch(cols, dst, width, &bs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunBatch allocates %v per call with warm scratch", allocs)
	}
}
