// Benchmarks: one per reproduced figure/table (see DESIGN.md's
// experiment index) plus throughput benches for the substrates.  The
// figure benches verify the reproduced shape once, outside the timing
// loop, so a regression in the numbers fails the bench run rather than
// silently timing the wrong computation.
package powerplay_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"testing"

	"powerplay"
	"powerplay/internal/cachesim"
	"powerplay/internal/expr"
	"powerplay/internal/proc"
	"powerplay/internal/vqsim"
	"powerplay/internal/web"
)

// BenchmarkFig2LuminanceSheet times one full Play of the Figure 2
// spreadsheet (E1).
func BenchmarkFig2LuminanceSheet(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance1(reg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	if p := float64(r.Power); p < 650e-6 || p > 850e-6 {
		b.Fatalf("Figure 2 total drifted: %v", r.Power)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Alternate times the Figure 3 sheet and pins the paper's
// headline comparison (E2): ≈150 µW, ≈5× below Figure 1.
func BenchmarkFig3Alternate(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d1, err := powerplay.Luminance1(reg)
	if err != nil {
		b.Fatal(err)
	}
	d2, err := powerplay.Luminance2(reg)
	if err != nil {
		b.Fatal(err)
	}
	r1, _ := d1.Evaluate()
	r2, err := d2.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	ratio := float64(r1.Power) / float64(r2.Power)
	if p2 := float64(r2.Power); p2 < 120e-6 || p2 > 190e-6 || ratio < 4 || ratio > 6.5 {
		b.Fatalf("Figure 3 comparison drifted: %v, ratio %.2f", r2.Power, ratio)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d2.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4MultiplierForm times the instant-feedback path of the
// Figure 4 form (E3): one validated model evaluation.
func BenchmarkFig4MultiplierForm(b *testing.B) {
	reg := powerplay.StandardLibrary()
	p := powerplay.Params{"bwA": 8, "bwB": 8, "vdd": 1.5, "f": 2e6}
	est, err := reg.Evaluate(powerplay.ArrayMultiplier, p)
	if err != nil {
		b.Fatal(err)
	}
	if c := float64(est.SwitchedCap()); math.Abs(c-64*253e-15) > 1e-18 {
		b.Fatalf("EQ 20 drifted: %v", est.SwitchedCap())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Evaluate(powerplay.ArrayMultiplier, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5InfoPad times one Play of the whole InfoPad system sheet
// (E4), macro and converters included.
func BenchmarkFig5InfoPad(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.InfoPad(reg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := d.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	custom := float64(r.Find("custom_hardware").Power)
	if frac := custom / float64(r.Power); frac > 0.02 {
		b.Fatalf("Figure 5 shape drifted: custom hardware %.2f%%", 100*frac)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVQSim times the activity-extracting functional simulator
// (E5), in pixels decoded per second.
func BenchmarkVQSim(b *testing.B) {
	cb := vqsim.NewCodebook()
	frame := make([]uint8, vqsim.CodesPerFrame)
	for i := range frame {
		frame[i] = uint8(i * 13)
	}
	frames := [][]uint8{frame}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := vqsim.NewDecoder(cb, true)
		out, err := d.RunFrames(frames)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(out)))
	}
}

// BenchmarkSortingEnergy times the full Ong/Yan pipeline (E6):
// assemble, execute with cache tracing, and price all three sorts.
func BenchmarkSortingEnergy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int64, 200)
	for i := range data {
		data[i] = int64(rng.Intn(1 << 16))
	}
	table := powerplay.DefaultEnergyTable()
	cache := powerplay.CacheConfig{Size: 2048, BlockSize: 32, Assoc: 2, WriteBack: true, WriteAllocate: true}
	rows, err := powerplay.MeasureSorts(data, table, cache)
	if err != nil {
		b.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Energy <= rows[3].Energy {
		b.Fatalf("sorting shape drifted: %+v", rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerplay.MeasureSorts(data, table, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParameterSweep times the E7 exploration loop: seven
// supply points across the Figure 3 sheet per iteration.
func BenchmarkParameterSweep(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		b.Fatal(err)
	}
	supplies := []float64{1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 3.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vdd := range supplies {
			if _, err := d.EvaluateAt(map[string]float64{"vdd": vdd}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompiledVsInterpreted contrasts the two evaluation paths on
// the same sheet (X19): "compiled" is the default Evaluate, which runs
// the slot-resolved plan; "interpreted" forces the tree-walking
// evaluator the compiled path falls back to.  Equivalence is asserted
// once outside the timing loops.
func BenchmarkCompiledVsInterpreted(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.InfoPad(reg)
	if err != nil {
		b.Fatal(err)
	}
	rc, err := d.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	ri, err := d.EvaluateInterpreted(nil)
	if err != nil {
		b.Fatal(err)
	}
	if rc.Power != ri.Power || rc.Area != ri.Area || rc.Delay != ri.Delay {
		b.Fatalf("paths disagree: compiled %v/%v/%v, interpreted %v/%v/%v",
			rc.Power, rc.Area, rc.Delay, ri.Power, ri.Area, ri.Delay)
	}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Evaluate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.EvaluateInterpreted(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepSerial times a 64-point supply sweep of the Figure 3
// sheet through the exploration engine (X18).
func BenchmarkSweepSerial(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		b.Fatal(err)
	}
	runner := &powerplay.ExploreRunner{}
	values := powerplay.Linspace(1.0, 3.3, 64)
	ctx := context.Background()
	// Verify the engine once outside the loop.
	pts, err := runner.Sweep(ctx, d, "vdd", values)
	if err != nil || len(pts) != 64 {
		b.Fatalf("sweep shape drifted: %d points, %v", len(pts), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep2DSerial times an 8×8 supply/frequency cross product
// — the web exploration page's heaviest request shape (X18).
func BenchmarkSweep2DSerial(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		b.Fatal(err)
	}
	runner := &powerplay.ExploreRunner{}
	v1 := powerplay.Linspace(1.0, 3.3, 8)
	v2 := powerplay.Linspace(1e6, 8e6, 8)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Sweep2D(ctx, d, "vdd", v1, "f", v2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCached times the warm-cache path: the same sweep a
// second web request would issue, every point memoized.
func BenchmarkSweepCached(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		b.Fatal(err)
	}
	runner := &powerplay.ExploreRunner{Cache: powerplay.NewExploreCache(0)}
	values := powerplay.Linspace(1.0, 3.3, 64)
	ctx := context.Background()
	if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Sweep(ctx, d, "vdd", values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteModelAccess times one Figure 6-7 round trip (E8):
// a remote evaluation of a mounted model over loopback HTTP.
func BenchmarkRemoteModelAccess(b *testing.B) {
	srv, err := web.NewServer(web.Config{}, powerplay.StandardLibrary())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	local := powerplay.StandardLibrary()
	if _, err := powerplay.MountRemote(local, &powerplay.Remote{BaseURL: ts.URL}, "r"); err != nil {
		b.Fatal(err)
	}
	p := powerplay.Params{"words": 4096, "bits": 6, "vdd": 1.5, "f": 2e6}
	name := "r." + powerplay.SRAM
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.Evaluate(name, p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate throughput ----

// BenchmarkExprEval times one spreadsheet-cell expression evaluation.
func BenchmarkExprEval(b *testing.B) {
	e := expr.MustCompile("words*bits*0.6f + c0 + words*31.25f + bits*500f")
	env := expr.MapEnv{"words": 4096, "bits": 6, "c0": 6.25e-12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExprCompile times parsing a typical cell.
func BenchmarkExprCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Compile(`power("radio") + power("cpu") * (1-eta)/eta`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeSheet times Play on a synthetic 512-row hierarchy.
func BenchmarkLargeSheet(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d := powerplay.NewDesign("big", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	for g := 0; g < 16; g++ {
		grp := d.Root.MustAddChild(fmt.Sprintf("block%d", g), "")
		for i := 0; i < 32; i++ {
			n := grp.MustAddChild(fmt.Sprintf("add%d", i), powerplay.RippleAdder)
			if err := n.SetParam("bits", "16"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := d.Evaluate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSim times raw cache accesses.
func BenchmarkCacheSim(b *testing.B) {
	c, err := cachesim.New(cachesim.Config{Size: 8192, BlockSize: 32, Assoc: 2, WriteBack: true, WriteAllocate: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*37)&0xFFFF, i%4 == 0)
	}
}

// BenchmarkDeckParse times loading a hand-written sheet.
func BenchmarkDeckParse(b *testing.B) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance1(reg)
	if err != nil {
		b.Fatal(err)
	}
	deck := powerplay.FormatDeck(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerplay.ParseDeck(deck, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWebSheetPage times one full spreadsheet page render —
// session lookup, evaluation and HTML generation.
func BenchmarkWebSheetPage(b *testing.B) {
	srv, err := web.NewServer(web.Config{}, powerplay.StandardLibrary())
	if err != nil {
		b.Fatal(err)
	}
	d, err := powerplay.Luminance1(srv.Registry())
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.InstallDesign("bench", d); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	if _, err := client.PostForm(ts.URL+"/login", url.Values{"user": {"bench"}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/design/Luminance_1")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkVMQuicksort times the fictitious processor, in executed
// instructions per second.
func BenchmarkVMQuicksort(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int64, 256)
	for i := range data {
		data[i] = int64(rng.Intn(1 << 16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, _, err := proc.RunSort(proc.QuickSortSrc, data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(prof.Total))
	}
}
