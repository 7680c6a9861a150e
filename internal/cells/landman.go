// Package cells implements the paper's computational-block power models:
// Landman's empirical "black box" capacitance characterization (EQ 2–3
// and EQ 20) and Svensson's analytical per-stage model (EQ 4–6).
//
// A Landman cell relates the complexity of a library element (bit width,
// shift range, input correlation) to total switched capacitance through
// characterized coefficients; glitching is folded into the coefficients
// and no knowledge of the cell's internals is required.  A Svensson
// block derives the same quantity analytically from the input/output
// capacitance and transition probabilities of each PMOS pull-up /
// NMOS pull-down stage in a bit slice.
//
// Each Landman cell writes its EQ 1 terms once, in its SweepForm (see
// model.SweepFormer): Evaluate builds the form at the point and turns
// it into an Estimate, and the sheet's batch executor runs the same
// form over whole columns of operating points.
package cells

import (
	"math"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// Linear is a Landman cell whose switched capacitance is linear in one
// width parameter (EQ 3): ripple adders, registers, buffers, comparator
// slices.  C_T = act · bits · CapPerBit.
type Linear struct {
	// Name is the library name; Title and Doc feed the documentation.
	Name, Title, Doc string
	// CapPerBit is C₀ of EQ 3: average capacitance switched per bit.
	CapPerBit units.Farads
	// AreaPerBit is the first-order layout area per bit.
	AreaPerBit units.SquareMeters
	// Delay0 and DelayPerBit give critical path = Delay0 + bits·DelayPerBit
	// at the reference supply (ripple carry for adders; constant for
	// registers).
	Delay0, DelayPerBit units.Seconds
	// DefaultBits seeds the input form.
	DefaultBits int
}

// Info implements model.Model.
func (l *Linear) Info() model.Info {
	db := l.DefaultBits
	if db == 0 {
		db = 8
	}
	return model.Info{
		Name:  l.Name,
		Title: l.Title,
		Class: model.Computation,
		Doc:   l.Doc,
		Params: model.WithStd(
			model.Param{Name: "bits", Doc: "input bit width", Default: float64(db), Min: 1, Max: 256, Integer: true},
			model.Param{Name: "act", Doc: "activity scale factor (1 = random data)", Default: 1, Min: 0, Max: 2},
		),
	}
}

// SweepForm implements model.SweepFormer.
func (l *Linear) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	bits := p["bits"]
	scale := model.CapScale(p[model.ParamTech])
	sf.AddTerm(model.SweepTerm{Label: "cell", Csw: p["act"] * bits * float64(l.CapPerBit) * scale, FMul: 1})
	sf.Area = bits * float64(l.AreaPerBit) * scale * scale
	sf.Delay0 = float64(l.Delay0) + bits*float64(l.DelayPerBit)
	return sf, true
}

// Evaluate implements model.Model.
func (l *Linear) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := l.SweepForm(p)
	e := sf.Estimate(p)
	e.Note("Landman black-box model: glitching included in coefficient, clock capacitance included")
	return e, nil
}

// Correlation options for two-input array cells (EQ 20's "multiplier
// type" form menu).
const (
	// Uncorrelated selects the random-input coefficient.
	Uncorrelated = 0
	// Correlated selects the correlated-input coefficient.
	Correlated = 1
)

// Multiplier is the Landman array-multiplier model of EQ 20:
// C_T = bwA · bwB · coeff, with separate coefficients for uncorrelated
// and correlated input streams.
type Multiplier struct {
	// Name, Title, Doc as in Linear.
	Name, Title, Doc string
	// CoeffUncorr is the per-bit² coefficient for random inputs
	// (253 fF in the UCB library).
	CoeffUncorr units.Farads
	// CoeffCorr is the per-bit² coefficient for correlated inputs.
	CoeffCorr units.Farads
	// AreaPerBit2 is layout area per bit².
	AreaPerBit2 units.SquareMeters
	// DelayPerBit approximates critical path = (bwA + bwB) · DelayPerBit.
	DelayPerBit units.Seconds
}

// Info implements model.Model.
func (m *Multiplier) Info() model.Info {
	return model.Info{
		Name:  m.Name,
		Title: m.Title,
		Class: model.Computation,
		Doc:   m.Doc,
		Params: model.WithStd(
			model.Param{Name: "bwA", Doc: "bit width of input A", Default: 8, Min: 1, Max: 128, Integer: true},
			model.Param{Name: "bwB", Doc: "bit width of input B", Default: 8, Min: 1, Max: 128, Integer: true},
			model.Param{Name: "corr", Doc: "input signal correlation", Default: Uncorrelated,
				Options: []model.Option{
					{Label: "uncorrelated inputs", Value: Uncorrelated},
					{Label: "correlated inputs", Value: Correlated},
				}},
		),
	}
}

// coeff returns the EQ 20 coefficient the corr parameter selects and
// the note that names it.
func (m *Multiplier) coeff(p model.Params) (units.Farads, string) {
	if p["corr"] == Correlated {
		return m.CoeffCorr, "correlated-input coefficient"
	}
	return m.CoeffUncorr, "uncorrelated-input coefficient (conservatively high for correlated data)"
}

// SweepForm implements model.SweepFormer.
func (m *Multiplier) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	coeff, _ := m.coeff(p)
	bwA, bwB := p["bwA"], p["bwB"]
	scale := model.CapScale(p[model.ParamTech])
	sf.AddTerm(model.SweepTerm{Label: "array", Csw: bwA * bwB * float64(coeff) * scale, FMul: 1})
	sf.Area = bwA * bwB * float64(m.AreaPerBit2) * scale * scale
	sf.Delay0 = (bwA + bwB) * float64(m.DelayPerBit)
	return sf, true
}

// Evaluate implements model.Model.
func (m *Multiplier) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := m.SweepForm(p)
	e := sf.Estimate(p)
	coeff, note := m.coeff(p)
	e.Note("EQ 20: C_T = bwA × bwB × %s, %s", coeff, note)
	return e, nil
}

// Shifter is a Landman logarithmic-shifter model: switched capacitance
// grows with the datapath width times the number of shift stages,
// C_T = bits · ceil(log2(maxshift+1)) · CapPerBitStage.
type Shifter struct {
	// Name, Title, Doc as in Linear.
	Name, Title, Doc string
	// CapPerBitStage is capacitance per bit per shift stage.
	CapPerBitStage units.Farads
	// AreaPerBitStage is area per bit per stage.
	AreaPerBitStage units.SquareMeters
	// DelayPerStage is the per-stage mux delay.
	DelayPerStage units.Seconds
}

// Info implements model.Model.
func (s *Shifter) Info() model.Info {
	return model.Info{
		Name:  s.Name,
		Title: s.Title,
		Class: model.Computation,
		Doc:   s.Doc,
		Params: model.WithStd(
			model.Param{Name: "bits", Doc: "datapath width", Default: 16, Min: 1, Max: 256, Integer: true},
			model.Param{Name: "maxshift", Doc: "largest shift distance", Default: 15, Min: 1, Max: 255, Integer: true},
		),
	}
}

// SweepForm implements model.SweepFormer.
func (s *Shifter) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	stages := math.Ceil(math.Log2(p["maxshift"] + 1))
	scale := model.CapScale(p[model.ParamTech])
	sf.AddTerm(model.SweepTerm{Label: "mux tree", Csw: p["bits"] * stages * float64(s.CapPerBitStage) * scale, FMul: 1})
	sf.Area = p["bits"] * stages * float64(s.AreaPerBitStage) * scale * scale
	sf.Delay0 = stages * float64(s.DelayPerStage)
	return sf, true
}

// Evaluate implements model.Model.
func (s *Shifter) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := s.SweepForm(p)
	return sf.Estimate(p), nil
}

// Mux is an n-way multiplexor: C_T = bits · (inputs−1) · CapPerLeg,
// modeling the tree of 2:1 stages.
type Mux struct {
	// Name, Title, Doc as in Linear.
	Name, Title, Doc string
	// CapPerLeg is switched capacitance per bit per 2:1 leg.
	CapPerLeg units.Farads
	// AreaPerLeg is area per bit per leg.
	AreaPerLeg units.SquareMeters
	// DelayPerLevel is delay per tree level.
	DelayPerLevel units.Seconds
}

// Info implements model.Model.
func (m *Mux) Info() model.Info {
	return model.Info{
		Name:  m.Name,
		Title: m.Title,
		Class: model.Computation,
		Doc:   m.Doc,
		Params: model.WithStd(
			model.Param{Name: "bits", Doc: "datapath width", Default: 8, Min: 1, Max: 256, Integer: true},
			model.Param{Name: "inputs", Doc: "number of selectable inputs", Default: 2, Min: 2, Max: 64, Integer: true},
		),
	}
}

// SweepForm implements model.SweepFormer.
func (m *Mux) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	legs := p["inputs"] - 1
	scale := model.CapScale(p[model.ParamTech])
	levels := math.Ceil(math.Log2(p["inputs"]))
	sf.AddTerm(model.SweepTerm{Label: "select tree", Csw: p["bits"] * legs * float64(m.CapPerLeg) * scale, FMul: 1})
	sf.Area = p["bits"] * legs * float64(m.AreaPerLeg) * scale * scale
	sf.Delay0 = levels * float64(m.DelayPerLevel)
	return sf, true
}

// Evaluate implements model.Model.
func (m *Mux) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := m.SweepForm(p)
	return sf.Estimate(p), nil
}

// Buffer drives an off-module load (output pads, long wires): the
// capacitance is the sum of internal driver capacitance and an
// externally supplied load, times a data activity factor.
type Buffer struct {
	// Name, Title, Doc as in Linear.
	Name, Title, Doc string
	// CapInternal is the driver's own switched capacitance per bit.
	CapInternal units.Farads
	// DefaultLoad seeds the load parameter (per bit).
	DefaultLoad units.Farads
	// AreaPerBit is driver area per bit.
	AreaPerBit units.SquareMeters
	// Delay is the driver delay at reference supply.
	Delay units.Seconds
}

// Info implements model.Model.
func (b *Buffer) Info() model.Info {
	return model.Info{
		Name:  b.Name,
		Title: b.Title,
		Class: model.Computation,
		Doc:   b.Doc,
		Params: model.WithStd(
			model.Param{Name: "bits", Doc: "bus width", Default: 8, Min: 1, Max: 256, Integer: true},
			model.Param{Name: "cload", Doc: "external load per bit", Unit: "F", Default: float64(b.DefaultLoad), Min: 0, Max: 1e-9},
			model.Param{Name: "act", Doc: "data transition probability per bit", Default: 0.5, Min: 0, Max: 1},
		),
	}
}

// SweepForm implements model.SweepFormer.
func (b *Buffer) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	scale := model.CapScale(p[model.ParamTech])
	perBit := float64(b.CapInternal)*scale + p["cload"]
	sf.AddTerm(model.SweepTerm{Label: "driver+load", Csw: p["bits"] * p["act"] * perBit, FMul: 1})
	sf.Area = p["bits"] * float64(b.AreaPerBit) * scale * scale
	sf.Delay0 = float64(b.Delay)
	return sf, true
}

// Evaluate implements model.Model.
func (b *Buffer) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := b.SweepForm(p)
	return sf.Estimate(p), nil
}

// check interface satisfaction at compile time.
var (
	_ model.SweepFormer = (*Linear)(nil)
	_ model.SweepFormer = (*Multiplier)(nil)
	_ model.SweepFormer = (*Shifter)(nil)
	_ model.SweepFormer = (*Mux)(nil)
	_ model.SweepFormer = (*Buffer)(nil)
)
