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

// Evaluate implements model.Model.
func (s *SRAM) Evaluate(p model.Params) (*model.Estimate, error) {
	words, bits := p["words"], p["bits"]
	scale := model.CapScale(p[model.ParamTech])
	act := p["act"]
	f := units.Hertz(float64(p.Freq()) * act)
	full, bitline := s.split(words, bits)
	full = units.Farads(float64(full) * scale)
	bitline = units.Farads(float64(bitline) * scale)

	e := &model.Estimate{VDD: p.VDD()}
	switch p["swing"] {
	case RailToRail:
		e.AddCap("periphery+decode", full, f)
		e.AddCap("bit-line array", bitline, f)
	case ReducedSwing:
		e.AddCap("periphery+decode", full, f)
		e.AddSwing("bit-line array", bitline, units.Volts(p["vswing"]), f)
		e.Note("reduced-swing bit lines: characterized at more than one voltage level (EQ 8)")
	}
	if s.LeakPerCell > 0 {
		e.AddStatic("cell leakage", units.Amps(words*bits*float64(s.LeakPerCell)))
	}
	e.Area = units.SquareMeters((words*bits*float64(s.CellArea) + float64(s.PeripheryArea)) * scale * scale)
	e.Delay = units.Seconds(float64(s.Delay0) * (1 + 0.1*math.Log2(math.Max(words, 2))) * model.DelayScale(float64(p.VDD())))
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

// Evaluate implements model.Model.
func (r *RegisterFile) Evaluate(p model.Params) (*model.Estimate, error) {
	words, bits, act := p["words"], p["bits"], p["act"]
	scale := model.CapScale(p[model.ParamTech])
	e := &model.Estimate{VDD: p.VDD()}
	// Data path switches with activity; clock load switches every cycle
	// (the paper notes clock capacitance is included in each block).
	e.AddCap("data path", units.Farads(act*bits*float64(r.CapPerBit)*scale), p.Freq())
	e.AddCap("clock+select", units.Farads(words*bits*float64(r.CapPerCell)*scale), p.Freq())
	e.Area = units.SquareMeters(words * bits * float64(r.CellArea) * scale * scale)
	e.Delay = units.Seconds(float64(r.Delay) * model.DelayScale(float64(p.VDD())))
	return e, nil
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

// Evaluate implements model.Model.
func (d *DRAM) Evaluate(p model.Params) (*model.Estimate, error) {
	if d.RefreshPeriod <= 0 {
		return nil, fmt.Errorf("dram %q: refresh period must be positive", d.Name)
	}
	words, bits := p["words"], p["bits"]
	scale := model.CapScale(p[model.ParamTech])
	ct := float64(d.C0) + words*float64(d.CWord) + bits*float64(d.CBit) + words*bits*float64(d.CWordBit)
	e := &model.Estimate{VDD: p.VDD()}
	e.AddCap("access", units.Farads(ct*scale*p["act"]), p.Freq())
	// Refresh: every word rewritten once per period; each refresh costs
	// roughly a row access of the cross-term capacitance.
	rowCap := bits * float64(d.CWordBit) * scale
	refreshFreq := words / float64(d.RefreshPeriod)
	e.AddCap("refresh", units.Farads(rowCap), units.Hertz(refreshFreq))
	e.Area = units.SquareMeters(words * bits * float64(d.CellArea) * scale * scale)
	e.Delay = units.Seconds(float64(d.Delay0) * (1 + 0.1*math.Log2(math.Max(words, 2))) * model.DelayScale(float64(p.VDD())))
	return e, nil
}

var (
	_ model.Model = (*SRAM)(nil)
	_ model.Model = (*RegisterFile)(nil)
	_ model.Model = (*DRAM)(nil)
)
