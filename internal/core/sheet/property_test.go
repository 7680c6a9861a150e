package sheet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildRandomTree grows a random hierarchy of cell rows under a
// deterministic RNG and returns the design plus the number of leaves.
func buildRandomTree(seed int64) (*Design, int) {
	rng := rand.New(rand.NewSource(seed))
	d := NewDesign("random", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	leaves := 0
	var grow func(n *Node, depth int)
	grow = func(n *Node, depth int) {
		kids := rng.Intn(4)
		if depth == 0 && kids == 0 {
			kids = 1
		}
		for i := 0; i < kids; i++ {
			if depth < 3 && rng.Intn(3) == 0 {
				sub := n.MustAddChild(fmt.Sprintf("g%d_%d", depth, i), "")
				grow(sub, depth+1)
				continue
			}
			leaf := n.MustAddChild(fmt.Sprintf("c%d_%d", depth, i), "cell")
			setParamValue(leaf, "bits", float64(1+rng.Intn(64)), "")
			leaves++
		}
	}
	grow(d.Root, 0)
	return d, leaves
}

// Property: for any hierarchy, the root power/area equal the sums over
// leaves, and repeated evaluation is bit-identical.
func TestQuickHierarchyConservation(t *testing.T) {
	f := func(seed int64) bool {
		d, leaves := buildRandomTree(seed)
		r1, err := d.Evaluate()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var sumP, sumA float64
		count := 0
		var walk func(*Result)
		walk = func(rr *Result) {
			if rr.Estimate != nil {
				sumP += float64(rr.Estimate.Power())
				sumA += float64(rr.Estimate.Area)
				count++
			}
			for _, c := range rr.Children {
				walk(c)
			}
		}
		walk(r1)
		if count != leaves {
			t.Logf("seed %d: %d leaves evaluated, want %d", seed, count, leaves)
			return false
		}
		if math.Abs(sumP-float64(r1.Power)) > 1e-12*math.Max(1, sumP) {
			return false
		}
		if math.Abs(sumA-float64(r1.Area)) > 1e-12*math.Max(1, sumA) {
			return false
		}
		r2, err := d.Evaluate()
		if err != nil {
			return false
		}
		return r1.Power == r2.Power && r1.Area == r2.Area && r1.Delay == r2.Delay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves the evaluation of any random
// hierarchy exactly.
func TestQuickJSONRoundTripExact(t *testing.T) {
	f := func(seed int64) bool {
		d, _ := buildRandomTree(seed)
		blob, err := d.MarshalJSON()
		if err != nil {
			return false
		}
		d2, err := ParseDesign(blob, d.Registry)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		r1, err1 := d.Evaluate()
		r2, err2 := d2.Evaluate()
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Power == r2.Power && r1.Area == r2.Area
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: scaling the supply by k scales every full-swing design's
// power by exactly k² (no hidden voltage dependence anywhere in the
// evaluator).
func TestQuickSupplyQuadratic(t *testing.T) {
	f := func(seed int64, rawK uint8) bool {
		k := 1 + float64(rawK)/64 // 1 .. ~5
		d, _ := buildRandomTree(seed)
		base, err := d.Evaluate()
		if err != nil {
			return false
		}
		if 1.5*k > 10 { // validation cap on vdd
			return true
		}
		scaled, err := d.EvaluateAt(map[string]float64{"vdd": 1.5 * k})
		if err != nil {
			return false
		}
		want := float64(base.Power) * k * k
		return math.Abs(float64(scaled.Power)-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
