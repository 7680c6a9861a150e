package sheet

import (
	"context"
	"math"
	"testing"
)

// sheetDecoder turns fuzz bytes into a small sheet.  Every decision
// consumes one byte, and an exhausted input reads as zeros, so any
// byte string decodes to some valid sheet.
type sheetDecoder struct {
	data []byte
	pos  int
}

func (dec *sheetDecoder) next(n int) int {
	if dec.pos >= len(dec.data) {
		return 0
	}
	b := dec.data[dec.pos]
	dec.pos++
	return int(b) % n
}

// Fuzz sheets read and write a fixed name pool, so references collide:
// globals shadow one another, rows reach each other through power() and
// area(), and "nope" is always undefined.
var (
	fuzzVars   = []string{"vdd", "f", "n", "g", "nope"}
	fuzzRows   = []string{"r0", "r1", "r2", "nope"}
	fuzzModels = []string{"cell", "loss", "", "nosuchmodel"}
	fuzzParams = []string{"bits", "act", "pload", "eta", "frobs"}
)

// expr decodes one expression in prefix form; past depth 3 only leaves.
//
//	0 "0"   1 "1"   2 "8"   3 NaN   4 +Inf   5 variable
//	6 +   7 -   8 *   9 /   10 %   11 >   12 ?:   13 &&   14 ||
//	15 power()/area()   16 dbtact()
func (dec *sheetDecoder) expr(depth int) string {
	op := dec.next(17)
	if depth >= 3 {
		op %= 6
	}
	sub := func() string { return dec.expr(depth + 1) }
	switch op {
	case 0:
		return "0"
	case 1:
		return "1"
	case 2:
		return "8"
	case 3:
		return "sqrt(-1)"
	case 4:
		return "exp(1000)"
	case 5:
		return fuzzVars[dec.next(len(fuzzVars))]
	case 11:
		return "(" + sub() + " > " + sub() + ")"
	case 12:
		return "(" + sub() + " ? " + sub() + " : " + sub() + ")"
	case 15:
		fn := []string{"power", "area"}[dec.next(2)]
		return fn + `("` + fuzzRows[dec.next(len(fuzzRows))] + `")`
	case 16:
		return "dbtact(" + sub() + ", " + sub() + ", " + sub() + ")"
	}
	binop := []string{"+", "-", "*", "/", "%", "", "", "&&", "||"}[op-6]
	return "(" + sub() + " " + binop + " " + sub() + ")"
}

// decodeSheet builds up to three rows (each under the root or an
// earlier row) and up to four globals (each on the root or a row).
func decodeSheet(t *testing.T, dec *sheetDecoder) *Design {
	d := NewDesign("fuzz", testRegistry())
	rows := []*Node{d.Root}
	for i, n := 0, dec.next(4); i < n; i++ {
		parent := rows[dec.next(len(rows))]
		row := parent.MustAddChild(fuzzRows[i], fuzzModels[dec.next(len(fuzzModels))])
		for j, m := 0, dec.next(3); j < m; j++ {
			name := fuzzParams[dec.next(len(fuzzParams))]
			if err := row.SetParam(name, dec.expr(0)); err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, row)
	}
	for i, n := 0, dec.next(5); i < n; i++ {
		name := fuzzVars[dec.next(4)]
		owner := rows[dec.next(len(rows))]
		if err := owner.SetGlobal(name, dec.expr(0)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// sameOutcome demands bit-identical results or identical error text.
func sameOutcome(t *testing.T, label string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, interpreter err %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text differs:\ngot:         %v\ninterpreter: %v", label, gotErr, wantErr)
		}
		return
	}
	var walk func(path string, a, b *Result)
	walk = func(path string, a, b *Result) {
		vals := func(r *Result) []float64 {
			return []float64{float64(r.Power), float64(r.DynamicPower), float64(r.StaticPower),
				float64(r.Area), float64(r.Delay), float64(r.EnergyPerOp)}
		}
		va, vb := vals(a), vals(b)
		for i := range va {
			if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
				t.Fatalf("%s %s: %v vs interpreter %v", label, path, va, vb)
			}
		}
		if len(a.Params) != len(b.Params) || len(a.Children) != len(b.Children) {
			t.Fatalf("%s %s: shape differs from the interpreter's", label, path)
		}
		for k, v := range a.Params {
			if math.Float64bits(v) != math.Float64bits(b.Params[k]) {
				t.Fatalf("%s %s: param %q %v vs interpreter %v", label, path, k, v, b.Params[k])
			}
		}
		for i := range a.Children {
			walk(path+"/"+a.Children[i].Node.Name, a.Children[i], b.Children[i])
		}
	}
	walk("", got, want)
}

// sameTotals demands the interpreter's root totals bit for bit, or its
// error text.
func sameTotals(t *testing.T, label string, pw, area, delay float64, err error, want *Result, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: err %v, interpreter err %v", label, err, wantErr)
	}
	if err == nil && (math.Float64bits(pw) != math.Float64bits(float64(want.Power)) ||
		math.Float64bits(area) != math.Float64bits(float64(want.Area)) ||
		math.Float64bits(delay) != math.Float64bits(float64(want.Delay))) {
		t.Fatalf("%s: %v/%v/%v, interpreter %v/%v/%v", label, pw, area, delay, want.Power, want.Area, want.Delay)
	}
}

// FuzzPlanMatchesInterpreter holds the compiled plan — full results,
// totals, the columnar sweep path — and the incremental engine to the
// interpreter on arbitrary small sheets: same values bit for bit, same
// error text, and no interpreter fallback whenever the plan compiles.  After the first Play it edits one global
// and plays again, exercising failures retained across Plays.
func FuzzPlanMatchesInterpreter(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := &sheetDecoder{data: data}
		d := decodeSheet(t, dec)
		compiles := func(ov map[string]float64) bool {
			_, err := d.PlanFor(overrideNames(ov))
			return err == nil
		}
		check := func(label string, ov map[string]float64, eval func() (*Result, error)) {
			before := planFallbacks.Value()
			got, gotErr := eval()
			if compiles(ov) && planFallbacks.Value() != before {
				t.Fatalf("%s: a compiled plan fell back to the interpreter", label)
			}
			want, wantErr := d.EvaluateInterpreted(ov)
			sameOutcome(t, label, got, gotErr, want, wantErr)
		}
		for _, ov := range []map[string]float64{nil, {"vdd": 2}, {"n": 0}} {
			check("EvaluateAt", ov, func() (*Result, error) { return d.EvaluateAt(ov) })
			want, wantErr := d.EvaluateInterpreted(ov)
			pw, area, delay, err := d.EvaluateTotals(ov)
			sameTotals(t, "EvaluateTotals", pw, area, delay, err, want, wantErr)
			plan, perr := d.PlanFor(overrideNames(ov))
			if perr != nil {
				continue
			}
			// A batch error is never canonical, only a batch success is.
			pws, areas, delays := make([]float64, 2), make([]float64, 2), make([]float64, 2)
			bev := plan.NewBatchEval(2)
			if bev.Run(context.Background(), pointColumns(bev, []map[string]float64{ov, ov}), pws, areas, delays) == nil {
				sameTotals(t, "BatchEval", pws[1], areas[1], delays[1], nil, want, wantErr)
			}
		}
		play := func() (*Result, error) {
			r, _, err := d.IncrementalEngine().Play()
			return r, err
		}
		check("Play", nil, play)
		var globals []*Node
		d.Root.Walk(func(n *Node) {
			for range n.Globals {
				globals = append(globals, n)
			}
		})
		if len(globals) == 0 {
			return
		}
		owner := globals[dec.next(len(globals))]
		name := owner.Globals[dec.next(len(owner.Globals))].Name
		src := dec.expr(0)
		if err := owner.SetGlobal(name, src); err != nil {
			t.Fatal(err)
		}
		check("Play after "+name+" = "+src, nil, play)
	})
}
