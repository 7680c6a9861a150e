// Incremental-Play equivalence harness: randomized edit sequences on
// the VQ and InfoPad sheets, asserting after every single edit that
// the incremental engine's output is bit-identical to a fresh full
// evaluation through the tree interpreter — the same contract the
// compiled and batch paths are held to, including error text and
// NaN/Inf propagation.  The file also carries the CI performance gate
// (make bench-incremental): a one-cell edit on InfoPad must re-price
// a small fraction of the sheet and beat a full Play by ≥5x.
package powerplay_test

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"powerplay"
	"powerplay/internal/expr"
)

// editableCells walks a design and collects every edit surface the
// fuzzer may hit: root globals and bound row parameters.
type editTarget struct {
	node  *powerplay.Node
	param string // "" means node global (root variable)
	name  string
}

func editableCells(d *powerplay.Design) []editTarget {
	var out []editTarget
	for _, g := range d.Root.Globals {
		out = append(out, editTarget{node: d.Root, name: g.Name})
	}
	d.Root.Walk(func(n *powerplay.Node) {
		for _, b := range n.Params {
			out = append(out, editTarget{node: n, param: b.Name, name: b.Name})
		}
	})
	return out
}

// setParamLiteral rebinds a bound row parameter of d to a literal, as
// a typed edit would, but to values (NaN, Inf) no expression source
// spells: it replaces the binding's expression in place, and Touch
// advances the generation as the sheet's own setters do.
func setParamLiteral(d *powerplay.Design, n *powerplay.Node, name string, v float64) {
	for i := range n.Params {
		if n.Params[i].Name == name {
			n.Params[i].Expr = expr.Literal(v, "fuzz")
		}
	}
	d.Touch()
}

// leafModel returns the model name of some model row, for structural
// fuzz edits.
func leafModel(d *powerplay.Design) string {
	name := ""
	d.Root.Walk(func(n *powerplay.Node) {
		if name == "" && n.Model != "" {
			name = n.Model
		}
	})
	return name
}

// fuzzValue picks an edit value: usually a plausible magnitude, but
// with deliberate NaN/Inf and out-of-range injections, because the
// bit-identity contract covers exactly those.
func fuzzValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return 0
	case 3:
		return 1e12 // far above any schema max: both paths must fail identically
	default:
		return []float64{0.9, 1.2, 1.5, 2.5, 3.3, 5, 8, 16, 24, 2e6, 20e6}[rng.Intn(11)]
	}
}

// TestIncrementalFuzzEquivalence drives random edit sequences — cell
// rebinds, Touch, structural add/remove — through the incremental
// engine and checks bit-identity against a from-scratch interpreted
// evaluation after every step.
func TestIncrementalFuzzEquivalence(t *testing.T) {
	builders := map[string]func() (*powerplay.Design, error){
		"Luminance_2": func() (*powerplay.Design, error) {
			return powerplay.Luminance2(powerplay.StandardLibrary())
		},
		"InfoPad": func() (*powerplay.Design, error) {
			return powerplay.InfoPad(powerplay.StandardLibrary())
		},
	}
	for name, build := range builders {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(name, func(t *testing.T) {
				d, err := build()
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				cells := editableCells(d)
				modelName := leafModel(d)
				engine := d.IncrementalEngine()
				fuzzed := 0 // live fuzz-added rows
				for step := 0; step < 40; step++ {
					switch op := rng.Intn(10); {
					case op < 6: // rebind a random cell to a random value
						c := cells[rng.Intn(len(cells))]
						v := fuzzValue(rng)
						if c.param == "" {
							c.node.SetGlobalValue(c.name, v, "fuzz")
						} else {
							setParamLiteral(d, c.node, c.param, v)
						}
					case op < 7: // Play with no edit at all
						d.Touch()
					case op < 9: // grow the sheet
						if _, err := d.Root.AddChild(fuzzRowName(fuzzed), modelName); err == nil {
							fuzzed++
						}
					default: // shrink it again
						if fuzzed > 0 {
							d.Root.RemoveChild(fuzzRowName(fuzzed - 1))
							fuzzed--
						}
					}
					ri, delta, errI := engine.Play()
					rf, errF := d.EvaluateInterpreted(nil)
					if (errI == nil) != (errF == nil) {
						t.Fatalf("step %d: incremental err=%v, fresh err=%v", step, errI, errF)
					}
					if errI != nil {
						if errI.Error() != errF.Error() {
							t.Fatalf("step %d: error text differs:\nincremental: %v\nfresh:       %v", step, errI, errF)
						}
						continue
					}
					_ = delta
					sameTree(t, name, "", ri, rf)
					if t.Failed() {
						t.Fatalf("step %d: incremental result diverged from fresh evaluation", step)
					}
				}
			})
		}
	}
}

func fuzzRowName(i int) string {
	return "fuzz_row_" + string(rune('a'+i%26))
}

// TestIncrementalPlaySmoke is the CI regression gate behind
// POWERPLAY_BENCH_INCREMENTAL (make bench-incremental): on InfoPad, a
// single-binding edit-Play must re-evaluate at most 20% of the plan's
// slots and beat a from-scratch full Play by at least 5x.
func TestIncrementalPlaySmoke(t *testing.T) {
	if os.Getenv("POWERPLAY_BENCH_INCREMENTAL") == "" {
		t.Skip("set POWERPLAY_BENCH_INCREMENTAL=1 to run the incremental Play smoke")
	}
	d, err := powerplay.InfoPad(powerplay.StandardLibrary())
	if err != nil {
		t.Fatal(err)
	}
	engine := d.IncrementalEngine()
	if _, _, err := engine.Play(); err != nil {
		t.Fatal(err)
	}

	// Baseline: the same one-binding edit workload through the
	// non-incremental path — d.Evaluate, a full recompute per Play.
	// An edited sheet's fingerprint always misses the plan cache, so
	// this pays the recompile a real editor's full Play pays; the
	// editless warm figure below is logged for reference only.
	const reps = 60
	vals := [2]float64{5.0, 5.05}
	start := time.Now()
	for i := 0; i < reps; i++ {
		d.Root.SetGlobalValue("vdd3", vals[i%2], "5")
		if _, err := d.Evaluate(); err != nil {
			t.Fatal(err)
		}
	}
	fullPer := time.Since(start) / reps

	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := d.Evaluate(); err != nil {
			t.Fatal(err)
		}
	}
	warmPer := time.Since(start) / reps

	// The same edit workload through the incremental engine: each
	// iteration pays the plan patch/diff and the dirty cone, which is
	// the honest incremental edit-Play cost.
	worstFrac := 0.0
	start = time.Now()
	for i := 0; i < reps; i++ {
		d.Root.SetGlobalValue("vdd3", vals[i%2], "5")
		_, delta, err := engine.Play()
		if err != nil {
			t.Fatal(err)
		}
		if delta.Full {
			t.Fatalf("edit-Play %d fell back to a full recompute: %+v", i, delta)
		}
		if frac := float64(delta.DirtySlots) / float64(delta.TotalSlots); frac > worstFrac {
			worstFrac = frac
		}
	}
	editPer := time.Since(start) / reps

	speedup := float64(fullPer) / float64(editPer)
	t.Logf("full Play after edit %v (editless warm %v), incremental edit-Play %v (%.1fx), worst dirty fraction %.1f%%",
		fullPer, warmPer, editPer, speedup, 100*worstFrac)
	if worstFrac > 0.20 {
		t.Errorf("one-cell edit dirtied %.1f%% of slots, budget is 20%%", 100*worstFrac)
	}
	if speedup < 5 {
		t.Errorf("edit-Play speedup %.1fx, gate is 5x", speedup)
	}
}
