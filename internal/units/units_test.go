package units

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormat(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{253e-15, "F", "253fF"},
		{1.5, "V", "1.5V"},
		{2e6, "Hz", "2MHz"},
		{146.4e-6, "W", "146.4uW"},
		{0, "W", "0W"},
		{100e-6, "W", "100uW"},
		{999.96e-6, "W", "1mW"}, // rounds into next band
		{-3.3, "V", "-3.3V"},
		{1e-12, "F", "1pF"},
		{0.0006e-12, "F", "600aF"},
		{1000, "Hz", "1kHz"},
		{1, "Hz", "1Hz"},
		{2.83, "W", "2.83W"},
	}
	for _, c := range cases {
		if got := Format(c.v, c.unit); got != c.want {
			t.Errorf("Format(%v, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestFormatExtremes(t *testing.T) {
	if got := Format(1e30, "F"); !strings.Contains(got, "e+") {
		t.Errorf("huge value should fall back to scientific notation, got %q", got)
	}
	if got := Format(math.NaN(), "W"); got != "NaNW" {
		t.Errorf("NaN = %q", got)
	}
	if got := Format(math.Inf(1), "W"); got != "+InfW" {
		t.Errorf("+Inf = %q", got)
	}
	if got := Format(math.Inf(-1), "W"); got != "-InfW" {
		t.Errorf("-Inf = %q", got)
	}
}

func TestFormatArea(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0um^2"},
		{50e-12, "50um^2"},
		{2.5e-6, "2.5mm^2"},
		{1e-4, "1cm^2"},
	}
	for _, c := range cases {
		if got := FormatArea(c.v); got != c.want {
			t.Errorf("FormatArea(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"253fF", 253e-15},
		{"1.5V", 1.5},
		{"2MHz", 2e6},
		{"2Meg", 2e6},
		{"2meg", 2e6},
		{"0.25", 0.25},
		{"2e6", 2e6},
		{"2E6", 2e6},
		{"1e-3", 1e-3},
		{"100u", 1e-4},
		{"100uW", 1e-4},
		{"3.3 V", 3.3},
		{"-1.2V", -1.2},
		{"+5", 5},
		{"1k", 1000},
		{"1KHz", 1000},
		{"4096", 4096},
		{"1F", 1}, // bare farad, capital F is a unit not femto
		{"1fF", 1e-15},
		{"1mA", 1e-3},
		{"1GHz", 1e9},
		{"80", 80},
		{"1e+3", 1e3},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "volts", "1.5.2bad...", "--3", "1.5V!!", "e6",
		"1e308T", "1e308Meg", "-1e308G"} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %v, want error", in, v)
		}
	}
}

// FuzzParse: Parse never panics, never returns a non-finite value
// without an error, and reads back its own result's shortest decimal
// form exactly.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"253fF", "1.5V", "2MHz", "0.25", "2e6", "100u", "3.3 V", "2Meg",
		"1e308T", "-1e308G", "1e-320f", "-0", "1e+06", "volts", "--3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Parse(%q) = %v, nil", s, v)
		}
		back := strconv.FormatFloat(v, 'g', -1, 64)
		if w, err := Parse(back); err != nil || w != v {
			t.Fatalf("Parse(%q) = %v; re-parsing %q gives %v, %v", s, v, back, w, err)
		}
	})
}

// Property: Format then Parse round-trips within formatting precision.
func TestFormatParseRoundTrip(t *testing.T) {
	f := func(mantissa float64, exp int8) bool {
		if mantissa == 0 || math.IsNaN(mantissa) || math.IsInf(mantissa, 0) {
			return true
		}
		// Keep within the prefix table's range.
		e := int(exp)%28 - 14
		v := mantissa / math.Pow(2, 40) * math.Pow(10, float64(e))
		if v == 0 || math.Abs(v) < 1e-17 || math.Abs(v) > 1e12 {
			return true
		}
		s := Format(v, "W")
		got, err := Parse(s)
		if err != nil {
			t.Logf("Parse(%q): %v", s, err)
			return false
		}
		rel := math.Abs(got-v) / math.Abs(v)
		return rel < 1e-3 // Format keeps 4 significant digits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Energy is symmetric in scaling — doubling V quadruples energy.
func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{(253 * FemtoFarad).String(), "253fF"},
		{Volts(1.5).String(), "1.5V"},
		{(2 * MegaHertz).String(), "2MHz"},
		{(150 * MicroWatt).String(), "150uW"},
		{Joules(300e-12).String(), "300pJ"},
		{Amps(1e-3).String(), "1mA"},
		{Seconds(1e-9).String(), "1ns"},
		{(100 * SquareMicron).String(), "100um^2"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestSci(t *testing.T) {
	if got := Sci(5.438e-4, "W"); got != "5.438e-04W" {
		t.Errorf("Sci = %q", got)
	}
}

// Parse must never panic on arbitrary form input, and anything it
// accepts must be finite unless the text spelled an infinity.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("panic on %q", s)
				ok = false
			}
		}()
		v, err := Parse(s)
		if err != nil {
			return true
		}
		return !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
