package sheet_test

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/obs"
	"powerplay/internal/units"
)

// metricValue reads one sample of the default metrics registry.
func metricValue(t *testing.T, sample string) float64 {
	t.Helper()
	var b strings.Builder
	obs.Default.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// sameBits demands bit-identical result trees.
func sameBits(t *testing.T, path string, a, b *sheet.Result) {
	t.Helper()
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Node != b.Node || !same(float64(a.Power), float64(b.Power)) ||
		!same(float64(a.DynamicPower), float64(b.DynamicPower)) || !same(float64(a.StaticPower), float64(b.StaticPower)) ||
		!same(float64(a.Area), float64(b.Area)) || !same(float64(a.Delay), float64(b.Delay)) ||
		!same(float64(a.EnergyPerOp), float64(b.EnergyPerOp)) || len(a.Params) != len(b.Params) ||
		len(a.Children) != len(b.Children) {
		t.Fatalf("%s: %+v vs %+v", path, a, b)
	}
	for k, v := range a.Params {
		if w, ok := b.Params[k]; !ok || !same(v, w) {
			t.Fatalf("%s: param %q %v vs %v", path, k, v, w)
		}
	}
	for i := range a.Children {
		sameBits(t, path+"/"+a.Children[i].Node.Name, a.Children[i], b.Children[i])
	}
}

// lazyGlobalDesign is a sheet whose global g = 8/n fails at n = 0 but
// is read only behind guards that are false there: the interpreter
// never evaluates it, so the design evaluates fine.  One guard reads
// the supply, so a vdd sweep replays it per point.
func lazyGlobalDesign(t *testing.T) *sheet.Design {
	t.Helper()
	reg := model.NewRegistry()
	reg.MustRegister(&model.Func{
		Meta: model.Info{
			Name: "cell", Title: "test cell", Class: model.Computation, Doc: "d",
			Params: model.WithStd(model.Param{Name: "bits", Default: 8, Min: 1, Max: 1024, Integer: true}),
		},
		Fn: func(p model.Params) (*model.Estimate, error) {
			e := &model.Estimate{VDD: p.VDD()}
			e.AddCap("c", units.Farads(p["bits"]*100e-15), p.Freq())
			e.Area = units.SquareMeters(p["bits"] * 1e-9)
			e.Delay = units.Seconds(p["bits"] * 1e-9 * model.DelayScale(float64(p.VDD())))
			return e, nil
		},
	})
	d := sheet.NewDesign("lazy", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	d.Root.SetGlobalValue("n", 0, "0")
	for name, src := range map[string]string{"g": "8/n", "w": "16"} {
		if err := d.Root.SetGlobal(name, src); err != nil {
			t.Fatal(err)
		}
	}
	for row, src := range map[string]string{"guarded": "n > 0 ? g : 8", "plain": "w", "swept": "vdd > 0.5 ? 8 : g"} {
		if err := d.Root.MustAddChild(row, "cell").SetParam("bits", src); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestLazyFailedGlobalStaysOnCompiledPath pins errors as values: a
// failing global that nothing reads must not push Evaluate, EvaluateAt,
// Play or a sweep off the compiled plan, and each must still match the
// interpreter bit for bit.
func TestLazyFailedGlobalStaysOnCompiledPath(t *testing.T) {
	const fallbacks = "powerplay_sheet_plan_fallbacks_total"
	const columnar = `powerplay_explore_chunks_total{result="columnar"}`
	d := lazyGlobalDesign(t)
	before := metricValue(t, fallbacks)

	want, err := d.EvaluateInterpreted(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Evaluate", got, want)
	ov := map[string]float64{"vdd": 2.5}
	wantAt, err := d.EvaluateInterpreted(ov)
	if err != nil {
		t.Fatal(err)
	}
	gotAt, err := d.EvaluateAt(ov)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "EvaluateAt", gotAt, wantAt)
	e := d.IncrementalEngine()
	played, _, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Play", played, want)

	// The sweep hoists (its chunks run columnar) and matches the scalar
	// oracle at every point.
	chunks := metricValue(t, columnar)
	values := explore.Linspace(0.9, 3.3, 200)
	pts, err := explore.Sweep(context.Background(), d, "vdd", values)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		r, err := d.EvaluateInterpreted(map[string]float64{"vdd": v})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pts[i].Power) != math.Float64bits(float64(r.Power)) ||
			math.Float64bits(pts[i].Area) != math.Float64bits(float64(r.Area)) ||
			math.Float64bits(pts[i].Delay) != math.Float64bits(float64(r.Delay)) {
			t.Fatalf("vdd=%g: sweep %+v, oracle %v/%v/%v", v, pts[i], r.Power, r.Area, r.Delay)
		}
	}
	if metricValue(t, columnar) == chunks {
		t.Error("sweep over a lazily failing global lost invariant hoisting")
	}

	// A one-cell edit replays incrementally over the retained failure.
	d.Root.SetGlobalValue("w", 24, "24")
	played, delta, err := e.Play()
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full {
		t.Fatalf("one-cell edit forced a full Play: %+v", delta)
	}
	want, err = d.EvaluateInterpreted(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Play after edit", played, want)

	if after := metricValue(t, fallbacks); after != before {
		t.Errorf("plan fallbacks moved %v -> %v on a compilable design", before, after)
	}
}
