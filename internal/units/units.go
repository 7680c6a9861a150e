// Package units provides the physical quantities and engineering-notation
// formatting used throughout PowerPlay.
//
// Every model in the library trades in a small set of SI quantities:
// capacitance (farads), voltage (volts), current (amperes), frequency
// (hertz), energy (joules), power (watts), time (seconds) and area
// (square metres).  Spreadsheet cells display these in engineering
// notation ("253fF", "1.5V", "2MHz", "146.4uW") exactly as the paper's
// figures do, and parameter forms accept the same notation back.
package units

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Distinct quantity types.  They are deliberately plain float64s so that
// arithmetic stays ordinary Go; the named types exist for documentation,
// for String methods, and so that API signatures say what they mean.
type (
	// Farads is electrical capacitance.
	Farads float64
	// Volts is electrical potential.
	Volts float64
	// Amps is electrical current.
	Amps float64
	// Hertz is frequency.
	Hertz float64
	// Joules is energy.
	Joules float64
	// Watts is power.
	Watts float64
	// Seconds is time.
	Seconds float64
	// SquareMeters is silicon area.
	SquareMeters float64
)

// Convenient scale constants.
const (
	FemtoFarad Farads = 1e-15
	PicoFarad  Farads = 1e-12
	NanoFarad  Farads = 1e-9

	MicroWatt Watts = 1e-6
	MilliWatt Watts = 1e-3

	PicoJoule Joules = 1e-12
	NanoJoule Joules = 1e-9

	KiloHertz Hertz = 1e3
	MegaHertz Hertz = 1e6
	GigaHertz Hertz = 1e9

	MicroAmp Amps = 1e-6
	MilliAmp Amps = 1e-3

	SquareMicron SquareMeters = 1e-12
	SquareMM     SquareMeters = 1e-6
)

func (f Farads) String() string       { return Format(float64(f), "F") }
func (v Volts) String() string        { return Format(float64(v), "V") }
func (a Amps) String() string         { return Format(float64(a), "A") }
func (h Hertz) String() string        { return Format(float64(h), "Hz") }
func (j Joules) String() string       { return Format(float64(j), "J") }
func (w Watts) String() string        { return Format(float64(w), "W") }
func (s Seconds) String() string      { return Format(float64(s), "s") }
func (a SquareMeters) String() string { return FormatArea(float64(a)) }

// engPrefixes and engScales hold, at index eng/3+6, the SI prefix and
// 10^eng of each engineering exponent eng from -18 to 12.
var (
	engPrefixes = [...]string{"a", "f", "p", "n", "u", "m", "", "k", "M", "G", "T"}
	engScales   = [...]float64{1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 1e9, 1e12}
)

// prefixValues is the inverse of engPrefixes, with SPICE-style aliases.
var prefixValues = map[string]float64{
	"a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9,
	"u": 1e-6, "µ": 1e-6, "m": 1e-3,
	"k": 1e3, "K": 1e3, "M": 1e6, "Meg": 1e6, "meg": 1e6,
	"G": 1e9, "g": 1e9, "T": 1e12,
}

// Format renders a value in engineering notation with an SI prefix and
// the given unit symbol: Format(253e-15, "F") == "253fF".  Values whose
// magnitude falls outside the prefix table fall back to scientific
// notation.  Zero formats as "0" plus the unit.
func Format(v float64, unit string) string {
	return string(AppendFormat(make([]byte, 0, 16), v, unit))
}

// AppendFormat appends Format(v, unit) to dst and returns the extended
// buffer.
func AppendFormat(dst []byte, v float64, unit string) []byte {
	switch {
	case v == 0:
		return append(append(dst, '0'), unit...)
	case math.IsNaN(v):
		return append(append(dst, "NaN"...), unit...)
	case math.IsInf(v, 1):
		return append(append(dst, "+Inf"...), unit...)
	case math.IsInf(v, -1):
		return append(append(dst, "-Inf"...), unit...)
	}
	exp := int(math.Floor(math.Log10(math.Abs(v))))
	// Round the exponent down to a multiple of 3.
	eng := exp - ((exp%3)+3)%3
	i := eng/3 + 6
	if i < 0 || i >= len(engScales) {
		return appendG(dst, v, unit)
	}
	start := len(dst)
	dst = appendG(dst, v/engScales[i], "")
	// Guard against 999.99... rounding up into the next band.
	if readsThousand(dst[start:]) {
		if i++; i == len(engScales) {
			return appendG(dst[:start], v, unit)
		}
		dst = appendG(dst[:start], v/engScales[i], "")
	}
	return append(append(dst, engPrefixes[i]...), unit...)
}

// readsThousand reports whether appendG's text reads 1000 or more in
// magnitude: four integer digits, or, in exponent form, a parsed value.
func readsThousand(text []byte) bool {
	if slices.Contains(text, 'e') {
		f, _ := strconv.ParseFloat(string(text), 64)
		return math.Abs(f) >= 1000
	}
	digits := 0
	for _, c := range text {
		if c == '.' {
			break
		}
		if '0' <= c && c <= '9' {
			digits++
		}
	}
	return digits >= 4
}

// FormatArea renders an area, preferring mm² and µm² which are the
// natural magnitudes for chip floorplans.
func FormatArea(m2 float64) string {
	return string(AppendArea(make([]byte, 0, 16), m2))
}

// AppendArea appends FormatArea(m2) to dst and returns the extended
// buffer.
func AppendArea(dst []byte, m2 float64) []byte {
	switch {
	case m2 == 0:
		return append(dst, "0um^2"...)
	case math.Abs(m2) >= 1e-5:
		return appendG(dst, m2*1e4, "cm^2")
	case math.Abs(m2) >= 1e-8:
		return appendG(dst, m2*1e6, "mm^2")
	default:
		return appendG(dst, m2*1e12, "um^2")
	}
}

// appendG appends v with four significant digits (fmt's "%.4g") and
// then unit.
func appendG(dst []byte, v float64, unit string) []byte {
	return append(strconv.AppendFloat(dst, v, 'g', 4, 64), unit...)
}

// Sci renders a value the way the paper's spreadsheet dumps do
// ("5.438e-04W").
func Sci(v float64, unit string) string {
	return string(AppendSci(make([]byte, 0, 16), v, unit))
}

// AppendSci appends Sci(v, unit) to dst and returns the extended
// buffer.
func AppendSci(dst []byte, v float64, unit string) []byte {
	return append(strconv.AppendFloat(dst, v, 'e', 3, 64), unit...)
}

// Parse reads a number in engineering notation and returns its SI value.
// Accepted forms: "253fF", "1.5V", "2MHz", "0.25", "2e6", "100u",
// "3.3 V", "2Meg".  The unit suffix, when present, is checked only for
// plausibility (letters), never interpreted; "2MHz" and "2MV" both parse
// to 2e6.  A bare SI prefix with no unit works ("100u" == 1e-4).
func Parse(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("units: empty value")
	}
	// Longest numeric prefix.
	i := 0
	seenDigit := false
	for i < len(s) {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			seenDigit = true
			i++
		case c == '+' || c == '-':
			if i == 0 || s[i-1] == 'e' || s[i-1] == 'E' {
				i++
			} else {
				goto done
			}
		case c == '.':
			i++
		case (c == 'e' || c == 'E') && seenDigit && i+1 < len(s) && isExpTail(s[i+1:]):
			i++
		default:
			goto done
		}
	}
done:
	if !seenDigit {
		return 0, fmt.Errorf("units: %q has no numeric part", s)
	}
	num, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("units: %q: %v", s, err)
	}
	rest := strings.TrimSpace(s[i:])
	if rest == "" {
		return num, nil
	}
	// SPICE-style "Meg" must be matched before the single-letter "M"...
	// but a lone "m" means milli, and "mm^2"-style units are not supported
	// here (areas are entered in base units by the sheet).
	for _, p := range []string{"Meg", "meg"} {
		if strings.HasPrefix(rest, p) {
			if !validUnitTail(rest[len(p):]) {
				return 0, fmt.Errorf("units: %q has malformed unit %q", s, rest)
			}
			return scaled(s, num, 1e6)
		}
	}
	if mult, ok := prefixValue(rest); ok {
		return scaled(s, num, mult)
	}
	if !validUnitTail(rest) {
		return 0, fmt.Errorf("units: %q has malformed unit %q", s, rest)
	}
	return num, nil
}

// scaled applies an SI multiplier, rejecting a product that overflows
// with the error ParseFloat gives a literal that does ("1e308T" fails
// as "1e400" does).
func scaled(s string, num, mult float64) (float64, error) {
	v := num * mult
	if math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: %q: %v", s, &strconv.NumError{Func: "ParseFloat", Num: s, Err: strconv.ErrRange})
	}
	return v, nil
}

func isExpTail(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	return len(s) > 0 && s[0] >= '0' && s[0] <= '9'
}

// prefixValue interprets the leading SI prefix of a unit tail, if the
// remainder looks like a unit.  "fF" -> 1e-15, "MHz" -> 1e6, "V" -> no
// prefix.  A single letter that is itself a common unit symbol (V, W, A,
// F, J, s) is treated as a unit, not a prefix.
func prefixValue(rest string) (float64, bool) {
	r := []rune(rest)
	first := string(r[0])
	mult, isPrefix := prefixValues[first]
	if !isPrefix {
		return 0, false
	}
	tail := string(r[1:])
	if tail == "" {
		// Bare prefix like "100u"; but bare "F"/"A" etc. are units.
		if isUnitSymbol(first) {
			return 0, false
		}
		return mult, true
	}
	if !validUnitTail(tail) {
		return 0, false
	}
	return mult, true
}

func isUnitSymbol(s string) bool {
	switch s {
	case "V", "W", "A", "F", "J", "s", "S":
		return true
	}
	return false
}

func validUnitTail(s string) bool {
	for _, c := range s {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == 'z' || c == '^' || c >= '0' && c <= '9' || c == 'Ω' || c == '/') {
			return false
		}
	}
	return true
}
