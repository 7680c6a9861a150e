package model

import "math"

// Voltage-to-delay scaling.
//
// The library's delay figures are characterized at the reference supply
// (1.5 V, the UCB low-power operating point).  Gate delay follows the
// alpha-power law
//
//	t ∝ VDD / (VDD − VT)^α
//
// with VT the threshold voltage and α the velocity-saturation index.
// DelayScale returns the multiplicative factor relative to the reference
// supply, so halving headroom slows the library down the way a designer
// exploring voltage scaling expects.
const (
	// RefVDD is the characterization supply of the built-in library.
	RefVDD = 1.5
	// Vt is the nominal threshold voltage of the reference process.
	Vt = 0.7
	// AlphaSat is the velocity-saturation index of the reference process.
	AlphaSat = 1.4
)

// DelayScale returns the delay multiplier at supply vdd relative to the
// reference supply.  Supplies at or below threshold return +Inf: the
// circuit does not run.
func DelayScale(vdd float64) float64 {
	if vdd <= Vt {
		return math.Inf(1)
	}
	return (vdd / math.Pow(vdd-Vt, AlphaSat)) / delayRef
}

// delayRef is the alpha-power delay factor at the reference supply,
// the divisor that makes DelayScale(RefVDD) == 1.
var delayRef = RefVDD / math.Pow(RefVDD-Vt, AlphaSat)

// MaxFreq converts a critical-path delay into the highest clock the
// component supports.  A zero delay means "no timing model" and returns
// +Inf.
func MaxFreq(delaySeconds float64) float64 {
	if delaySeconds <= 0 {
		return math.Inf(1)
	}
	return 1 / delaySeconds
}
