// Package analog implements the paper's analog power models.
//
// Analog power is dominated by static bias currents rather than
// capacitive switching, so the estimate is the linear sum
//
//	P_analog = Vsupply · Σᵢ I_bias,ᵢ        (EQ 13)
//
// which is EQ 1 with only static terms.  For op-amp style circuits the
// bias current is itself derivable from the performance the designer
// actually specifies: for a bipolar emitter-coupled transconductance
// amplifier (EQ 14–16),
//
//	Gm  = (q/kT)·(I_bias/2)   (each device carries half the tail)
//	Rid = 4kTβ₀ / (q·I_bias)
//	Ro  ≈ V_A / I_bias
//
// so the amplifier can be parameterized by Gm, Rid or Ro exactly the
// way a digital adder is parameterized by bit width (EQ 17).
package analog

import (
	"fmt"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// Thermal voltage kT/q at room temperature (300 K), volts.
const vtThermal300 = 0.02585

// VT returns the thermal voltage kT/q at the given temperature.
func VT(tempK float64) float64 {
	return vtThermal300 * tempK / 300
}

// Bias is the EQ 13 generic analog block: a set of bias branches summed
// and multiplied linearly by the supply.
type Bias struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// Branches is the number of identical bias branches.
	Branches int
	// Area is the layout estimate.
	Area units.SquareMeters
}

// Info implements model.Model.
func (b *Bias) Info() model.Info {
	nb := b.Branches
	if nb == 0 {
		nb = 1
	}
	return model.Info{
		Name:  b.Name,
		Title: b.Title,
		Class: model.Analog,
		Doc:   b.Doc,
		Params: model.WithStd(
			model.Param{Name: "ibias", Doc: "bias current per branch", Unit: "A", Default: 100e-6, Min: 0, Max: 1},
			model.Param{Name: "branches", Doc: "number of bias branches", Default: float64(nb), Min: 1, Max: 1e4, Integer: true},
		),
	}
}

// SweepForm implements model.SweepFormer: the branches' summed bias
// current, with no timing model.
func (b *Bias) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	sf.AddCurrent("bias branches", p["ibias"]*p["branches"])
	sf.Area = float64(b.Area)
	sf.Untimed = true
	return sf, true
}

// Evaluate implements model.Model.
func (b *Bias) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := b.SweepForm(p)
	e := sf.Estimate(p)
	e.Note("EQ 13: analog power linear in supply (no V² term)")
	return e, nil
}

// Specification modes for the transconductance amplifier.
const (
	// ByIbias takes the tail current directly.
	ByIbias = 0
	// ByGm derives the tail current from the required transconductance.
	ByGm = 1
	// ByRid derives it from the required differential input impedance.
	ByRid = 2
	// ByRo derives it from the required output impedance.
	ByRo = 3
)

// TransconductanceAmp is the EQ 14–17 bipolar emitter-coupled pair.
type TransconductanceAmp struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// Area is the layout estimate.
	Area units.SquareMeters
}

// Info implements model.Model.
func (a *TransconductanceAmp) Info() model.Info {
	return model.Info{
		Name:  a.Name,
		Title: a.Title,
		Class: model.Analog,
		Doc:   a.Doc,
		Params: model.WithStd(
			model.Param{Name: "spec", Doc: "which specification fixes the bias point", Default: ByGm,
				Options: []model.Option{
					{Label: "tail bias current", Value: ByIbias},
					{Label: "transconductance Gm", Value: ByGm},
					{Label: "differential input impedance Rid", Value: ByRid},
					{Label: "output impedance Ro", Value: ByRo},
				}},
			model.Param{Name: "ibias", Doc: "tail current (spec = ibias)", Unit: "A", Default: 100e-6, Min: 0, Max: 1},
			model.Param{Name: "gm", Doc: "transconductance (spec = gm)", Unit: "A/V", Default: 1e-3, Min: 0, Max: 100},
			model.Param{Name: "rid", Doc: "input impedance (spec = rid)", Unit: "Ohm", Default: 100e3, Min: 1, Max: 1e12},
			model.Param{Name: "ro", Doc: "output impedance (spec = ro)", Unit: "Ohm", Default: 1e6, Min: 1, Max: 1e12},
			model.Param{Name: "beta0", Doc: "forward current gain β₀", Default: 100, Min: 1, Max: 1e4},
			model.Param{Name: "va", Doc: "Early voltage V_A", Unit: "V", Default: 50, Min: 1, Max: 500},
			model.Param{Name: "temp", Doc: "junction temperature", Unit: "K", Default: 300, Min: 200, Max: 450},
		),
	}
}

// TailCurrent solves EQ 14–16 for the tail current implied by the
// selected specification.
func (a *TransconductanceAmp) TailCurrent(p model.Params) (float64, error) {
	vt := VT(p["temp"])
	switch p["spec"] {
	case ByIbias:
		return p["ibias"], nil
	case ByGm:
		// Gm = (q/kT)·Ibias/2  ⇒  Ibias = 2·(kT/q)·Gm  (EQ 17).
		return 2 * vt * p["gm"], nil
	case ByRid:
		// Rid = 2β₀/gm = 4·(kT/q)·β₀/Ibias  ⇒  Ibias = 4·(kT/q)·β₀/Rid.
		return 4 * vt * p["beta0"] / p["rid"], nil
	case ByRo:
		// Ro ≈ V_A/Ibias  ⇒  Ibias = V_A/Ro.
		return p["va"] / p["ro"], nil
	}
	return 0, fmt.Errorf("unknown amplifier specification %v", p["spec"])
}

// Evaluate implements model.Model.
func (a *TransconductanceAmp) Evaluate(p model.Params) (*model.Estimate, error) {
	ibias, err := a.TailCurrent(p)
	if err != nil {
		return nil, err
	}
	vt := VT(p["temp"])
	e := &model.Estimate{VDD: p.VDD()}
	e.AddStatic("tail current", units.Amps(ibias))
	e.Area = a.Area
	e.Note("bias point: Ibias=%s Gm=%.3g A/V Rid=%.3g Ohm Ro=%.3g Ohm",
		units.Amps(ibias), ibias/(2*vt), 4*vt*p["beta0"]/ibias, p["va"]/ibias)
	return e, nil
}

// CMOSOTA is the MOS counterpart of the bipolar pair: a square-law
// five-transistor operational transconductance amplifier.  In strong
// inversion gm = √(2·k'·(W/L)·I_D), so a transconductance spec fixes
// the drain current as I_D = gm²/(2·k'·(W/L)) — the same
// performance-parameterization idea as EQ 14–17 applied to the "any
// class of … analog … components" claim.
type CMOSOTA struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// Area is the layout estimate.
	Area units.SquareMeters
}

// Info implements model.Model.
func (a *CMOSOTA) Info() model.Info {
	return model.Info{
		Name:  a.Name,
		Title: a.Title,
		Class: model.Analog,
		Doc:   a.Doc,
		Params: model.WithStd(
			model.Param{Name: "spec", Doc: "which specification fixes the bias point", Default: ByGm,
				Options: []model.Option{
					{Label: "tail bias current", Value: ByIbias},
					{Label: "transconductance Gm", Value: ByGm},
				}},
			model.Param{Name: "ibias", Doc: "tail current (spec = ibias)", Unit: "A", Default: 100e-6, Min: 0, Max: 1},
			model.Param{Name: "gm", Doc: "transconductance (spec = gm)", Unit: "A/V", Default: 1e-3, Min: 0, Max: 10},
			model.Param{Name: "kprime", Doc: "process transconductance µ·Cox", Unit: "A/V^2", Default: 50e-6, Min: 1e-6, Max: 1e-3},
			model.Param{Name: "wl", Doc: "input-pair W/L ratio", Default: 20, Min: 0.5, Max: 1000},
			model.Param{Name: "branches", Doc: "current-mirror branches drawing the tail current", Default: 2, Min: 1, Max: 10, Integer: true},
		),
	}
}

// TailCurrent solves the square law for the selected specification.
func (a *CMOSOTA) TailCurrent(p model.Params) (float64, error) {
	switch p["spec"] {
	case ByIbias:
		return p["ibias"], nil
	case ByGm:
		gm := p["gm"]
		// Each input device carries I_tail/2: gm = √(2·k'·W/L·I_tail/2)
		// ⇒ I_tail = gm²/(k'·W/L).
		return gm * gm / (p["kprime"] * p["wl"]), nil
	}
	return 0, fmt.Errorf("unknown OTA specification %v", p["spec"])
}

// Evaluate implements model.Model.
func (a *CMOSOTA) Evaluate(p model.Params) (*model.Estimate, error) {
	itail, err := a.TailCurrent(p)
	if err != nil {
		return nil, err
	}
	e := &model.Estimate{VDD: p.VDD()}
	e.AddStatic("tail + mirrors", units.Amps(itail*p["branches"]))
	e.Area = a.Area
	e.Note("square-law bias point: I_tail=%s for Gm=%.3g A/V (k'=%.3g, W/L=%g)",
		units.Amps(itail), p["gm"], p["kprime"], p["wl"])
	return e, nil
}

var (
	_ model.SweepFormer = (*Bias)(nil)
	_ model.Model       = (*TransconductanceAmp)(nil)
	_ model.Model       = (*CMOSOTA)(nil)
)
