// Package dcdc implements the paper's DC-DC converter model.
//
// A converter is specified by the power it delivers to its load and by
// its conversion efficiency (EQ 18),
//
//	η ≡ P_load / P_in = P_load / (P_load + P_diss)
//
// so that under the first-order assumption of constant efficiency the
// converter's own dissipation is (EQ 19)
//
//	P_diss = P_load · (1 − η) / η
//
// This is the paper's example of inter-model interaction: in a design
// sheet the load power is normally an expression over sibling modules —
// power("custom") + power("radio") — so re-exploring any chip parameter
// automatically re-prices the converter feeding it.
package dcdc

import (
	"fmt"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// Dissipation evaluates EQ 19 for a load power and efficiency in (0,1].
func Dissipation(pload units.Watts, eta float64) (units.Watts, error) {
	if eta <= 0 || eta > 1 {
		return 0, fmt.Errorf("dcdc: efficiency %g outside (0, 1]", eta)
	}
	if pload < 0 {
		return 0, fmt.Errorf("dcdc: negative load power %v", pload)
	}
	return units.Watts(float64(pload) * (1 - eta) / eta), nil
}

// Converter is the library model.  In a sheet, "pload" is bound to an
// expression summing the powers of the modules the converter feeds.
type Converter struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// DefaultEta seeds the efficiency parameter (e.g. 0.8 for the
	// InfoPad's converters).
	DefaultEta float64
}

// Info implements model.Model.
func (c *Converter) Info() model.Info {
	eta := c.DefaultEta
	if eta == 0 {
		eta = 0.9
	}
	return model.Info{
		Name:  c.Name,
		Title: c.Title,
		Class: model.Converter,
		Doc:   c.Doc,
		Params: model.WithStd(
			model.Param{Name: "pload", Doc: "power delivered to the load (bind to power(...) of fed modules)", Unit: "W", Default: 1, Min: 0, Max: 1e6},
			model.Param{Name: "eta", Doc: "conversion efficiency η", Default: eta, Min: 0.01, Max: 1},
		),
	}
}

// Evaluate implements model.Model.  Only the converter's own dissipation
// is reported — the load's power is accounted for by the load's row —
// expressed as a static draw from the input supply so it fits EQ 1.
func (c *Converter) Evaluate(p model.Params) (*model.Estimate, error) {
	diss, err := Dissipation(units.Watts(p["pload"]), p["eta"])
	if err != nil {
		return nil, err
	}
	vdd := p.VDD()
	e := &model.Estimate{VDD: vdd}
	if vdd > 0 {
		e.AddStatic("conversion loss", units.Amps(float64(diss)/float64(vdd)))
	}
	e.Note("EQ 19: η=%.0f%%, load %s, input %s", p["eta"]*100,
		units.Watts(p["pload"]), units.Watts(p["pload"]+float64(diss)))
	return e, nil
}

var _ model.Model = (*Converter)(nil)
