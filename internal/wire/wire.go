// Package wire implements the paper's interconnect estimation.
//
// Interconnect activity is not inherent to an algorithm, so at the
// earliest design stages the best available estimate ties interconnect
// to the design's active area through Rent's rule — T = t·B^p, relating
// the block count of a region to its external connections — and
// Donath's hierarchical placement argument, which converts the Rent
// exponent into an average wire length in gate pitches.  Given active
// area (supplied by the other modules' area models, an inter-model
// interaction), the gate pitch follows, total wire length follows, and
// capacitance is parameterized by feature size and capacitance per unit
// length.  As the design progresses these values are back-annotated for
// accuracy.
package wire

import (
	"math"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// DonathAvgLength returns Donath's estimate of the average interconnect
// length, in gate pitches, of a hierarchically placed design of n gates
// with Rent exponent p (0 < p < 1).
//
// The closed form (Donath 1979) is
//
//	R̄ = (2/9) · [ 7·(n^(p−1/2) − 1)/(4^(p−1/2) − 1)
//	              − (1 − n^(p−3/2))/(1 − 4^(p−3/2)) ]
//	           / [ (1 − n^(p−1))/(1 − 4^(p−1)) ]
//
// The removable singularities at p = 1/2 and p = 1 are handled by a tiny
// perturbation, which is far below the accuracy of the model.
func DonathAvgLength(n float64, p float64) float64 {
	if n <= 1 {
		return 0
	}
	// Perturb off the removable singularities.
	if math.Abs(p-0.5) < 1e-9 {
		p = 0.5 + 1e-9
	}
	if math.Abs(p-1) < 1e-9 {
		p = 1 - 1e-9
	}
	num := 7*(math.Pow(n, p-0.5)-1)/(math.Pow(4, p-0.5)-1) -
		(1-math.Pow(n, p-1.5))/(1-math.Pow(4, p-1.5))
	den := (1 - math.Pow(n, p-1)) / (1 - math.Pow(4, p-1))
	return 2.0 / 9.0 * num / den
}

// Estimate is a plain-function interconnect estimate used by both the
// Interconnect model and the tests.
type Estimate struct {
	// GatePitch is the linear spacing of blocks: sqrt(area/blocks).
	GatePitch float64
	// AvgLength is the Donath average wire length in metres.
	AvgLength float64
	// TotalLength is metres of wire across the whole design.
	TotalLength float64
	// TotalCap is the total wire capacitance.
	TotalCap units.Farads
	// WireArea is the physical routing area.
	WireArea units.SquareMeters
}

// EstimateWires computes the geometric part of the interconnect model:
// given active area, block count, Rent exponent, fanout (wires per
// block), capacitance per metre and wire pitch.
func EstimateWires(activeArea float64, blocks, rent, fanout, capPerMeter, wirePitch float64) Estimate {
	if blocks < 1 || activeArea <= 0 {
		return Estimate{}
	}
	pitch := math.Sqrt(activeArea / blocks)
	avg := DonathAvgLength(blocks, rent) * pitch
	total := avg * blocks * fanout
	return Estimate{
		GatePitch:   pitch,
		AvgLength:   avg,
		TotalLength: total,
		TotalCap:    units.Farads(total * capPerMeter),
		WireArea:    units.SquareMeters(total * wirePitch),
	}
}

// Interconnect is the library model wrapping EstimateWires.  Its "area"
// parameter is normally bound to an expression over the sheet's other
// modules (area("datapath") + area("ctrl")) — the inter-model
// interaction the paper describes.
type Interconnect struct {
	// Name, Title, Doc identify the cell.
	Name, Title, Doc string
	// CapPerMeter is wire capacitance per unit length at the reference
	// feature size.
	CapPerMeter float64
	// WirePitch is the routing pitch at the reference feature size.
	WirePitch float64
}

// Info implements model.Model.
func (w *Interconnect) Info() model.Info {
	return model.Info{
		Name:  w.Name,
		Title: w.Title,
		Class: model.Interconnect,
		Doc:   w.Doc,
		Params: model.WithStd(
			model.Param{Name: "area", Doc: "active area of the region (bind to area(...) of composing modules)", Unit: "m^2", Default: 1e-6, Min: 0, Max: 1},
			model.Param{Name: "blocks", Doc: "number of placed blocks/gates", Default: 1000, Min: 1, Max: 1e9},
			model.Param{Name: "rent", Doc: "Rent exponent p", Default: 0.6, Min: 0.1, Max: 0.9},
			model.Param{Name: "fanout", Doc: "wires per block", Default: 1.5, Min: 0.1, Max: 10},
			model.Param{Name: "act", Doc: "average wire switching activity", Default: 0.15, Min: 0, Max: 1},
		),
	}
}

// Evaluate implements model.Model.
func (w *Interconnect) Evaluate(p model.Params) (*model.Estimate, error) {
	scale := model.CapScale(p[model.ParamTech])
	est := EstimateWires(p["area"], p["blocks"], p["rent"], p["fanout"],
		w.CapPerMeter*scale, w.WirePitch*scale)
	e := &model.Estimate{VDD: p.VDD()}
	e.AddCap("wires", units.Farads(float64(est.TotalCap)*p["act"]), p.Freq())
	e.Area = est.WireArea
	// RC delay of the average wire, with a lumped 100 Ω/mm proxy.
	e.Delay = units.Seconds(0.5 * est.AvgLength * 1e5 * est.AvgLength * w.CapPerMeter * scale)
	e.Note("Donath/Rent estimate: avg length %.3g m over %g blocks (p=%.2f); back-annotate as placement firms up",
		est.AvgLength, p["blocks"], p["rent"])
	return e, nil
}

var _ model.Model = (*Interconnect)(nil)
