// Package storage implements the paper's memory power models.
//
// Small memories (pipeline registers, register files) reuse the
// computational-block strategy: capacitance linear in the number of
// storage bits.  Large memories (SRAM, DRAM) use the organization-aware
// model of EQ 7,
//
//	C_T = C0 + C1w·words + C1b·bits + C2·words·bits
//
// whose cross term captures the bit-line array.  Memories with reduced
// bit-line swings are inaccurate if modeled as a single rail-to-rail
// capacitance scaled by VDD²; EQ 8 splits the estimate into full-swing
// and partial-swing terms,
//
//	P = α { Cfullswing·VDD² + Cpartialswing·Vswing·VDD } f
//
// which fits the EQ 1 template directly.  Non-negligible short-circuit
// currents can be handled the same way: Veendrick's direct-path charge
// (DirectPathCharge) folds in as an effective capacitance Q / VDD,
// though no library model folds it in yet.
//
// SRAM, RegisterFile and DRAM write their EQ 1 terms once, in their
// SweepForm (see model.SweepFormer): Evaluate builds the form at the
// point and turns it into an Estimate, and the sheet's batch executor
// runs the same form over whole columns of operating points.
package storage

import (
	"fmt"
	"math"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// Swing options for the SRAM bit-line array.
const (
	// RailToRail models the bit lines switching the full supply.
	RailToRail = 0
	// ReducedSwing models precharged bit lines with a limited swing
	// (EQ 8); the swing voltage is the "vswing" parameter.
	ReducedSwing = 1
)

// SRAM is the EQ 7 organization-aware memory model.  The four
// capacitance coefficients are characterized per library; the UCB
// low-power SRAM instance lives in package library.
type SRAM struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// C0 is the organization-independent constant (periphery, control).
	C0 units.Farads
	// CWord is the per-word coefficient (row decode, word lines).
	CWord units.Farads
	// CBit is the per-output-bit coefficient (sense amps, data path).
	CBit units.Farads
	// CWordBit is the cross coefficient (bit-line array).
	CWordBit units.Farads
	// LeakPerCell is the static leakage per storage cell.
	LeakPerCell units.Amps
	// CellArea is layout area per storage cell; periphery is folded in
	// via PeripheryArea.
	CellArea units.SquareMeters
	// PeripheryArea is organization-independent area.
	PeripheryArea units.SquareMeters
	// Delay0 is the access time at the reference supply for a minimal
	// array; access time grows logarithmically with words.
	Delay0 units.Seconds
	// DefaultWords and DefaultBits seed the input form.
	DefaultWords, DefaultBits int
	// DefaultSwing selects the default bit-line mode (RailToRail or
	// ReducedSwing); library variants differ only here.
	DefaultSwing float64
}

// Info implements model.Model.
func (s *SRAM) Info() model.Info {
	dw, db := s.DefaultWords, s.DefaultBits
	if dw == 0 {
		dw = 256
	}
	if db == 0 {
		db = 8
	}
	return model.Info{
		Name:  s.Name,
		Title: s.Title,
		Class: model.Storage,
		Doc:   s.Doc,
		Params: model.WithStd(
			model.Param{Name: "words", Doc: "number of words", Default: float64(dw), Min: 1, Max: 1 << 26, Integer: true},
			model.Param{Name: "bits", Doc: "word width", Default: float64(db), Min: 1, Max: 1024, Integer: true},
			model.Param{Name: "swing", Doc: "bit-line swing mode", Default: s.DefaultSwing,
				Options: []model.Option{
					{Label: "rail-to-rail bit lines", Value: RailToRail},
					{Label: "reduced-swing bit lines (EQ 8)", Value: ReducedSwing},
				}},
			model.Param{Name: "vswing", Doc: "bit-line swing when reduced", Unit: "V", Default: 0.4, Min: 0.05, Max: 5},
			model.Param{Name: "act", Doc: "access activity (fraction of cycles with an access)", Default: 1, Min: 0, Max: 1},
		),
	}
}

// bitlineFraction is the share of the EQ 7 capacitance that physically
// lives on the bit lines and therefore swings Vswing instead of VDD in
// reduced-swing designs: the cross term plus the per-bit data path.
func (s *SRAM) split(words, bits float64) (full, bitline units.Farads) {
	bitline = units.Farads(words*bits*float64(s.CWordBit) + bits*float64(s.CBit))
	full = units.Farads(float64(s.C0) + words*float64(s.CWord))
	return full, bitline
}

// SweepForm implements model.SweepFormer.  The access activity rides
// on the frequency, the organization-dependent capacitances and the
// leakage current are fixed by words×bits, and the swing mode picks
// between the EQ 7 rail-to-rail split and the EQ 8 partial-swing term.
func (s *SRAM) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	words, bits := p["words"], p["bits"]
	scale := model.CapScale(p[model.ParamTech])
	act := p["act"]
	full, bitline := s.split(words, bits)
	fullC := float64(full) * scale
	bitC := float64(bitline) * scale
	switch p["swing"] {
	case RailToRail:
		sf.AddTerm(model.SweepTerm{Label: "periphery+decode", Csw: fullC, FMul: act})
		sf.AddTerm(model.SweepTerm{Label: "bit-line array", Csw: bitC, FMul: act})
	case ReducedSwing:
		sf.AddTerm(model.SweepTerm{Label: "periphery+decode", Csw: fullC, FMul: act})
		sf.AddTerm(model.SweepTerm{Label: "bit-line array", Csw: bitC, Swing: p["vswing"], FMul: act})
	}
	if s.LeakPerCell > 0 {
		sf.AddCurrent("cell leakage", words*bits*float64(s.LeakPerCell))
	}
	sf.Area = (words*bits*float64(s.CellArea) + float64(s.PeripheryArea)) * scale * scale
	sf.Delay0 = float64(s.Delay0) * (1 + 0.1*math.Log2(math.Max(words, 2)))
	return sf, true
}

// Evaluate implements model.Model.
func (s *SRAM) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := s.SweepForm(p)
	e := sf.Estimate(p)
	if p["swing"] == ReducedSwing {
		e.Note("reduced-swing bit lines: characterized at more than one voltage level (EQ 8)")
	}
	return e, nil
}

// RegisterFile models small storage with the computational-block
// strategy: clocked storage cells plus a decoded port.  C_T =
// bits·(CapPerBit + words·CapPerCell) per access, with the clock load on
// every cell every cycle.
type RegisterFile struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// CapPerBit is data-path capacitance per accessed bit.
	CapPerBit units.Farads
	// CapPerCell is the per-cell clock/select load switched per cycle.
	CapPerCell units.Farads
	// CellArea is area per storage cell.
	CellArea units.SquareMeters
	// Delay is the access delay at reference supply.
	Delay units.Seconds
	// DefaultWords seeds the form; 1 models a pipeline register.
	DefaultWords int
}

// Info implements model.Model.
func (r *RegisterFile) Info() model.Info {
	dw := r.DefaultWords
	if dw == 0 {
		dw = 1
	}
	return model.Info{
		Name:  r.Name,
		Title: r.Title,
		Class: model.Storage,
		Doc:   r.Doc,
		Params: model.WithStd(
			model.Param{Name: "words", Doc: "number of registers", Default: float64(dw), Min: 1, Max: 4096, Integer: true},
			model.Param{Name: "bits", Doc: "register width", Default: 8, Min: 1, Max: 256, Integer: true},
			model.Param{Name: "act", Doc: "data activity per bit", Default: 0.5, Min: 0, Max: 1},
		),
	}
}

// SweepForm implements model.SweepFormer.
func (r *RegisterFile) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	words, bits, act := p["words"], p["bits"], p["act"]
	scale := model.CapScale(p[model.ParamTech])
	// Data path switches with activity; clock load switches every cycle
	// (the paper notes clock capacitance is included in each block).
	sf.AddTerm(model.SweepTerm{Label: "data path", Csw: act * bits * float64(r.CapPerBit) * scale, FMul: 1})
	sf.AddTerm(model.SweepTerm{Label: "clock+select", Csw: words * bits * float64(r.CapPerCell) * scale, FMul: 1})
	sf.Area = words * bits * float64(r.CellArea) * scale * scale
	sf.Delay0 = float64(r.Delay)
	return sf, true
}

// Evaluate implements model.Model.
func (r *RegisterFile) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := r.SweepForm(p)
	return sf.Estimate(p), nil
}

// DRAM is a first-order dynamic memory model: EQ 7 access capacitance
// plus a refresh term that burns power even when idle.
type DRAM struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// C0, CWord, CBit, CWordBit are the EQ 7 coefficients.
	C0, CWord, CBit, CWordBit units.Farads
	// RefreshPeriod is the time within which every row is refreshed.
	RefreshPeriod units.Seconds
	// CellArea is per-cell area.
	CellArea units.SquareMeters
	// Delay0 is the access delay for a minimal array.
	Delay0 units.Seconds
}

// Info implements model.Model.
func (d *DRAM) Info() model.Info {
	return model.Info{
		Name:  d.Name,
		Title: d.Title,
		Class: model.Storage,
		Doc:   d.Doc,
		Params: model.WithStd(
			model.Param{Name: "words", Doc: "number of words (rows × columns/bits)", Default: 1 << 16, Min: 1, Max: 1 << 28, Integer: true},
			model.Param{Name: "bits", Doc: "word width", Default: 16, Min: 1, Max: 1024, Integer: true},
			model.Param{Name: "act", Doc: "access activity", Default: 1, Min: 0, Max: 1},
		),
	}
}

// SweepForm implements model.SweepFormer.  The refresh term switches at
// an absolute frequency set by the organization and the refresh period,
// not by the swept clock, so it rides in FConst.  A non-positive
// refresh period has no form, and Evaluate reports it as an error.
func (d *DRAM) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	if d.RefreshPeriod <= 0 {
		return sf, false
	}
	words, bits := p["words"], p["bits"]
	scale := model.CapScale(p[model.ParamTech])
	ct := float64(d.C0) + words*float64(d.CWord) + bits*float64(d.CBit) + words*bits*float64(d.CWordBit)
	sf.AddTerm(model.SweepTerm{Label: "access", Csw: ct * scale * p["act"], FMul: 1})
	// Refresh: every word rewritten once per period; each refresh costs
	// roughly a row access of the cross-term capacitance.
	rowCap := bits * float64(d.CWordBit) * scale
	refreshFreq := words / float64(d.RefreshPeriod)
	sf.AddTerm(model.SweepTerm{Label: "refresh", Csw: rowCap, FConst: refreshFreq})
	sf.Area = words * bits * float64(d.CellArea) * scale * scale
	sf.Delay0 = float64(d.Delay0) * (1 + 0.1*math.Log2(math.Max(words, 2)))
	return sf, true
}

// Evaluate implements model.Model.
func (d *DRAM) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, ok := d.SweepForm(p)
	if !ok {
		return nil, fmt.Errorf("dram %q: refresh period must be positive", d.Name)
	}
	return sf.Estimate(p), nil
}

// check interface satisfaction at compile time.
var (
	_ model.SweepFormer = (*SRAM)(nil)
	_ model.SweepFormer = (*RegisterFile)(nil)
	_ model.SweepFormer = (*DRAM)(nil)
)
