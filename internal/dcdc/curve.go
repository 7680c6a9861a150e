package dcdc

import (
	"fmt"
	"sort"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// The paper notes that converter efficiency "is a function of
// temperature, input voltage, and load power for varying loads, but in
// many applications it can be assumed constant to the first order."
// Curve is the second-order model: a measured η(load) characteristic,
// interpolated piecewise-linearly, so duty-cycled systems price the
// light-load efficiency collapse that the constant-η assumption hides.

// EffPoint is one sample of the efficiency characteristic.
type EffPoint struct {
	// LoadFrac is the load as a fraction of the rated load.
	LoadFrac float64
	// Eta is the measured efficiency at that point.
	Eta float64
}

// Curve is a converter with a measured efficiency characteristic.
type Curve struct {
	// Name, Title, Doc identify the part.
	Name, Title, Doc string
	// Rated is the design load.
	Rated units.Watts
	// Points sample η(load/rated); order does not matter.  Queries
	// clamp to the endpoints.
	Points []EffPoint
}

// typicalBuckCurve is the shape of a mid-90s buck regulator: poor at
// light load (switching overhead dominates), peaking near rated load.
func typicalBuckCurve() []EffPoint {
	return []EffPoint{
		{0.01, 0.30}, {0.05, 0.55}, {0.10, 0.66}, {0.25, 0.76},
		{0.50, 0.82}, {0.75, 0.84}, {1.00, 0.85}, {1.25, 0.83},
	}
}

// NewTypicalBuck builds a Curve with the default characteristic.
func NewTypicalBuck(name, title string, rated units.Watts) *Curve {
	return &Curve{
		Name: name, Title: title,
		Doc: "Buck converter with measured efficiency vs load: light loads " +
			"pay the switching overhead, so a constant-η model misprices " +
			"duty-cycled systems (second-order EQ 18).",
		Rated:  rated,
		Points: typicalBuckCurve(),
	}
}

// Efficiency interpolates the characteristic at a load power against
// the part's rated load.
func (c *Curve) Efficiency(load units.Watts) (float64, error) {
	return c.efficiencyAt(float64(load), float64(c.Rated))
}

// efficiencyAt is the reentrant core: it never mutates the receiver,
// so concurrent sheet evaluations are safe.
func (c *Curve) efficiencyAt(load, rated float64) (float64, error) {
	if len(c.Points) == 0 {
		return 0, fmt.Errorf("dcdc: converter %q has no efficiency points", c.Name)
	}
	if rated <= 0 {
		return 0, fmt.Errorf("dcdc: converter %q has no rated load", c.Name)
	}
	pts := make([]EffPoint, len(c.Points))
	copy(pts, c.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].LoadFrac < pts[j].LoadFrac })
	for _, p := range pts {
		if p.Eta <= 0 || p.Eta > 1 || p.LoadFrac < 0 {
			return 0, fmt.Errorf("dcdc: converter %q has invalid point %+v", c.Name, p)
		}
	}
	frac := load / rated
	if frac <= pts[0].LoadFrac {
		return pts[0].Eta, nil
	}
	last := pts[len(pts)-1]
	if frac >= last.LoadFrac {
		return last.Eta, nil
	}
	for i := 1; i < len(pts); i++ {
		if frac <= pts[i].LoadFrac {
			a, b := pts[i-1], pts[i]
			t := (frac - a.LoadFrac) / (b.LoadFrac - a.LoadFrac)
			return a.Eta + t*(b.Eta-a.Eta), nil
		}
	}
	return last.Eta, nil
}

// Info implements model.Model.
func (c *Curve) Info() model.Info {
	return model.Info{
		Name:  c.Name,
		Title: c.Title,
		Class: model.Converter,
		Doc:   c.Doc,
		Params: model.WithStd(
			model.Param{Name: "pload", Doc: "power delivered to the load (bind to power(...))", Unit: "W", Default: float64(c.Rated), Min: 0, Max: 1e6},
			model.Param{Name: "rated", Doc: "rated (design) load", Unit: "W", Default: float64(c.Rated), Min: 1e-6, Max: 1e6},
		),
	}
}

// loss is the efficiency at p's load and the dissipation it implies.
func (c *Curve) loss(p model.Params) (eta float64, diss units.Watts, err error) {
	eta, err = c.efficiencyAt(p["pload"], p["rated"])
	if err != nil {
		return 0, 0, err
	}
	diss, err = Dissipation(units.Watts(p["pload"]), eta)
	return eta, diss, err
}

// SweepForm implements model.SweepFormer.  A point the characteristic
// or Dissipation refuses has no form, and Evaluate reports the error.
func (c *Curve) SweepForm(p model.Params) (sf model.SweepForm, ok bool) {
	_, diss, err := c.loss(p)
	if err != nil {
		return sf, false
	}
	return lossForm(diss), true
}

// Evaluate implements model.Model.
func (c *Curve) Evaluate(p model.Params) (*model.Estimate, error) {
	eta, diss, err := c.loss(p)
	if err != nil {
		return nil, err
	}
	sf := lossForm(diss)
	e := sf.Estimate(p)
	e.Note("η(load) characteristic: %.1f%% at %.0f%% of rated load",
		eta*100, 100*p["pload"]/p["rated"])
	return e, nil
}

var _ model.SweepFormer = (*Curve)(nil)
