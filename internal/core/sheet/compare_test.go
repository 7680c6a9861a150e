package sheet

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	reg := testRegistry()
	mk := func(name string, rows map[string]float64) *Result {
		d := NewDesign(name, reg)
		d.Root.SetGlobalValue("vdd", 1.5, "1.5")
		d.Root.SetGlobalValue("f", 1e6, "1e6")
		// Deterministic construction order.
		for _, n := range []string{"lut", "mem", "mux", "reg"} {
			if bits, ok := rows[n]; ok {
				setParamValue(d.Root.MustAddChild(n, "cell"), "bits", bits, "")
			}
		}
		r, err := d.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk("impl1", map[string]float64{"lut": 100, "mem": 10, "reg": 2})
	b := mk("impl2", map[string]float64{"lut": 20, "mem": 10, "mux": 3, "reg": 2})

	c := Compare("impl1", a, "impl2", b)
	if c.Ratio() <= 1 {
		t.Errorf("impl1 should be hungrier: ratio %v", c.Ratio())
	}
	if len(c.Rows) != 4 {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	// The LUT delta dominates and sorts first.
	if c.Rows[0].Path != "lut" {
		t.Errorf("first row = %+v", c.Rows[0])
	}
	byPath := map[string]CompareRow{}
	for _, r := range c.Rows {
		byPath[r.Path] = r
	}
	if byPath["mux"].Only != "B" || byPath["lut"].Only != "" {
		t.Errorf("Only flags: %+v", byPath)
	}
	if byPath["mem"].Delta() != 0 {
		t.Errorf("identical rows should have zero delta: %v", byPath["mem"])
	}
	var buf strings.Builder
	c.Write(&buf)
	out := buf.String()
	for _, want := range []string{"impl1", "impl2", "lut", "—", "TOTAL", "x)"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table missing %q:\n%s", want, out)
		}
	}
}

func TestCompareZeroTotal(t *testing.T) {
	empty := &Result{Node: &Node{Name: "e"}}
	c := Compare("a", empty, "b", empty)
	if c.Ratio() != 0 {
		t.Errorf("zero totals should report ratio 0, got %v", c.Ratio())
	}
}
