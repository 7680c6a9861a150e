package storage

import (
	"powerplay/internal/units"
)

// Veendrick's short-circuit (direct-path) dissipation model.
//
// While an input ramps between the two thresholds, both the pull-up and
// pull-down conduct and charge flows directly from VDD to ground.  For a
// symmetric static CMOS gate with input rise/fall time τ, Veendrick
// gives
//
//	P_sc = (β/12) · (VDD − 2·VT)³ · τ · f
//
// The paper folds this into the EQ 1 template by expressing the
// direct-path charge as an effective capacitance with a voltage swing:
// an EQ 1 term C·Vswing·VDD·f with Vswing = VDD dissipates C·VDD²·f,
// so C_eff = P_sc / (VDD²·f).

// DirectPathCharge returns the charge drawn from the supply per input
// transition: Q = (β/12)·(VDD − 2·VT)³·τ / VDD.  Beta is the combined
// transconductance of the gate in A/V², tau the input rise/fall time.
// When the supply is at or below 2·VT the gate has no direct path and
// the charge is zero — the classic low-power trick.
func DirectPathCharge(beta float64, tau units.Seconds, vdd, vt units.Volts) float64 {
	headroom := float64(vdd) - 2*float64(vt)
	if headroom <= 0 || vdd <= 0 {
		return 0
	}
	energy := beta / 12 * headroom * headroom * headroom * float64(tau)
	return energy / float64(vdd)
}
