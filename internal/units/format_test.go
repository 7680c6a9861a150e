package units

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// frozenFormat and frozenFormatArea are the fmt-based formatters as they
// stood before AppendFormat and AppendArea replaced them: the oracle
// every display string must keep matching byte for byte.
func frozenFormat(v float64, unit string) string {
	switch {
	case v == 0:
		return "0" + unit
	case math.IsNaN(v):
		return "NaN" + unit
	case math.IsInf(v, 1):
		return "+Inf" + unit
	case math.IsInf(v, -1):
		return "-Inf" + unit
	}
	prefixes := map[int]string{
		-18: "a", -15: "f", -12: "p", -9: "n", -6: "u", -3: "m",
		0: "", 3: "k", 6: "M", 9: "G", 12: "T",
	}
	exp := int(math.Floor(math.Log10(math.Abs(v))))
	// Round the exponent down to a multiple of 3.
	eng := exp - ((exp%3)+3)%3
	prefix, ok := prefixes[eng]
	if !ok {
		return fmt.Sprintf("%.4g%s", v, unit)
	}
	scaled := v / math.Pow(10, float64(eng))
	// Guard against 999.99... rounding up into the next band.
	s := strconv.FormatFloat(scaled, 'g', 4, 64)
	if f, _ := strconv.ParseFloat(s, 64); math.Abs(f) >= 1000 {
		eng += 3
		if prefix, ok = prefixes[eng]; !ok {
			return fmt.Sprintf("%.4g%s", v, unit)
		}
		scaled = v / math.Pow(10, float64(eng))
		s = strconv.FormatFloat(scaled, 'g', 4, 64)
	}
	return s + prefix + unit
}

func frozenFormatArea(m2 float64) string {
	switch {
	case m2 == 0:
		return "0um^2"
	case math.Abs(m2) >= 1e-5:
		return fmt.Sprintf("%.4gcm^2", m2*1e4)
	case math.Abs(m2) >= 1e-8:
		return fmt.Sprintf("%.4gmm^2", m2*1e6)
	default:
		return fmt.Sprintf("%.4gum^2", m2*1e12)
	}
}

// frozenSci is Sci as it stood before AppendSci replaced it.
func frozenSci(v float64, unit string) string {
	return fmt.Sprintf("%.3e%s", v, unit)
}

// formatSeeds are the values where the formatters change behaviour:
// signed zeros, subnormals, non-finite values, the edges of the prefix
// bands (where rounding carries into the next band), and the bands
// outside the prefix table that fall back to plain "%.4g".
var formatSeeds = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	999.95e-6, 999.96e-6, 999.949e-6, 1e-18, 0.99995e-18, 9.9995e-19, 1e-19,
	1e15, 999.95e12, 999.94e12, 1e12, 1e30, -1e30, 1000, 999.95, 999.5, 1e-3,
	1e-5, 0.99999e-5, 1e-8, 0.99999e-8, 253e-15, -3.3, 146.4e-6, 1.2e6,
}

// checkFormat compares the appenders with the frozen formatters for one
// value, appending after a non-empty prefix to pin append semantics.
func checkFormat(t *testing.T, v float64, unit string) {
	t.Helper()
	if got, want := string(AppendFormat([]byte("x"), v, unit)), "x"+frozenFormat(v, unit); got != want {
		t.Fatalf("AppendFormat(%v (%#x), %q) = %q, want %q", v, math.Float64bits(v), unit, got, want)
	}
	if got, want := Format(v, unit), frozenFormat(v, unit); got != want {
		t.Fatalf("Format(%v, %q) = %q, want %q", v, unit, got, want)
	}
	if got, want := string(AppendArea([]byte("x"), v)), "x"+frozenFormatArea(v); got != want {
		t.Fatalf("AppendArea(%v (%#x)) = %q, want %q", v, math.Float64bits(v), got, want)
	}
	if got, want := FormatArea(v), frozenFormatArea(v); got != want {
		t.Fatalf("FormatArea(%v) = %q, want %q", v, got, want)
	}
	if got, want := string(AppendSci([]byte("x"), v, unit)), "x"+frozenSci(v, unit); got != want {
		t.Fatalf("AppendSci(%v (%#x), %q) = %q, want %q", v, math.Float64bits(v), unit, got, want)
	}
	if got, want := Sci(v, unit), frozenSci(v, unit); got != want {
		t.Fatalf("Sci(%v, %q) = %q, want %q", v, unit, got, want)
	}
}

// FuzzAppendFormat: AppendFormat, AppendArea and AppendSci equal the
// frozen fmt-based formatters for every float64 and unit.
func FuzzAppendFormat(f *testing.F) {
	for _, v := range formatSeeds {
		f.Add(v, "W")
	}
	f.Add(1.5, "")
	f.Add(2e6, "<&>+'\"\x00")
	f.Fuzz(func(t *testing.T, v float64, unit string) {
		checkFormat(t, v, unit)
	})
}

// TestAppendFormatMatchesFrozen runs the fuzz property over the seeds,
// the floats adjacent to every decade and band edge, and random bit
// patterns, so plain `go test` covers far more than the seed corpus.
func TestAppendFormatMatchesFrozen(t *testing.T) {
	for _, v := range formatSeeds {
		checkFormat(t, v, "W")
	}
	for e := -330; e <= 310; e++ {
		for _, m := range []float64{1, 999.95, 999.5, 9.9995} {
			edge := m * math.Pow(10, float64(e))
			for _, v := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1))} {
				checkFormat(t, v, "s")
				checkFormat(t, -v, "s")
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkFormat(t, math.Float64frombits(rng.Uint64()), "Hz")
		checkFormat(t, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-22)), "F")
	}
}

// TestAppendFormatNoAllocs: appending into a buffer with room allocates
// nothing, which is what the sheet and sweep pages' table builders
// rely on.
func TestAppendFormatNoAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range formatSeeds {
			buf = AppendFormat(buf[:0], v, "W")
			buf = AppendArea(buf[:0], v)
			buf = AppendSci(buf[:0], v, "W")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendFormat/AppendArea/AppendSci allocated %v times per run, want 0", allocs)
	}
}
