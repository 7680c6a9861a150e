package library

import (
	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// Fixed is the data-sheet component model for system-level analysis:
// commodity parts (LCDs, radio modems, codecs, servos) whose power the
// designer reads from a data sheet or measures on the bench.  The
// paper's InfoPad analysis mixes such measured rows freely with modeled
// custom hardware — that interleaving is the point of the spreadsheet.
type Fixed struct {
	// Name, Title, Doc identify the part.
	Name, Title, Doc string
	// DefaultPower seeds the pnom parameter.
	DefaultPower units.Watts
	// DefaultVDD seeds the supply (informational: power is taken as
	// measured, not rescaled).
	DefaultVDD units.Volts
	// Area is the board/module footprint, if tracked.
	Area units.SquareMeters
}

// Info implements model.Model.
func (f *Fixed) Info() model.Info {
	vdd := f.DefaultVDD
	if vdd == 0 {
		vdd = 5
	}
	return model.Info{
		Name:  f.Name,
		Title: f.Title,
		Class: model.Commodity,
		Doc:   f.Doc,
		Params: []model.Param{
			{Name: model.ParamVDD, Doc: "supply voltage (informational)", Unit: "V", Default: float64(vdd), Min: 0, Max: 50},
			{Name: model.ParamFreq, Doc: "operating frequency (informational)", Unit: "Hz", Default: 0, Min: 0, Max: 10e9},
			{Name: model.ParamTech, Doc: "unused", Unit: "m", Default: 0, Min: 0, Max: 1e-3},
			{Name: "pnom", Doc: "data-sheet or measured power", Unit: "W", Default: float64(f.DefaultPower), Min: 0, Max: 1e6},
			{Name: "act", Doc: "duty cycle (1 = always on)", Default: 1, Min: 0, Max: 1},
		},
	}
}

// SweepForm implements model.SweepFormer: the part draws its duty-cycled
// data-sheet power from whatever supply it sits on, with no timing
// model.
func (f *Fixed) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	sf.AddDraw("data-sheet draw", p["pnom"]*p["act"])
	sf.Area = float64(f.Area)
	sf.Untimed = true
	return sf, true
}

// Evaluate implements model.Model.
func (f *Fixed) Evaluate(p model.Params) (*model.Estimate, error) {
	sf, _ := f.SweepForm(p)
	e := sf.Estimate(p)
	e.Note("power taken from data sheet / measurement; not voltage-scaled")
	return e, nil
}

var _ model.SweepFormer = (*Fixed)(nil)
