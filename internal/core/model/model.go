// Package model defines PowerPlay's model template (EQ 1 of the paper)
// and the parameter schema shared by every component model.
//
// Electronic power dissipation is described by the sum of dynamic and
// static components,
//
//	P = Σᵢ Csw,ᵢ · Vswing,ᵢ · VDD · fᵢ  +  I · VDD
//
// where Csw,ᵢ is the average capacitance at node group i switching over
// a voltage range Vswing,ᵢ at frequency fᵢ, and I is the total static
// current (leakage, bias).  A model maps its input parameters — bit
// widths, memory organization, signal correlation, supply voltage,
// operating frequency — onto any combination of Csw, Vswing and I terms,
// which gives maximum flexibility: digital, analog and mixed-mode
// components at any abstraction level all fit the template.
//
// Models also report first-order area and delay, which the spreadsheet
// displays next to power and which other models consume (interconnect
// power is a function of the design's active area).
package model

import (
	"fmt"
	"sort"
	"strings"

	"powerplay/internal/units"
)

// Conventional parameter names every model understands.  The spreadsheet
// engine injects these from the enclosing scope when an instance does not
// bind them explicitly.
const (
	ParamVDD  = "vdd"  // supply voltage, volts
	ParamFreq = "f"    // operating (access) frequency, hertz
	ParamTech = "tech" // feature size, metres; scales capacitance
)

// RefTech is the feature size at which the built-in library was
// characterized (the UC Berkeley 1.2 µm low-power process).
const RefTech = 1.2e-6

// CapScale returns the first-order technology scaling factor for
// switched capacitance: linear in feature size.  A zero tech parameter
// means "reference technology".
func CapScale(tech float64) float64 {
	if tech <= 0 {
		return 1
	}
	return tech / RefTech
}

// Contribution is one dynamic term of EQ 1: a lump of capacitance
// switching at a node group.
type Contribution struct {
	// Label names the node group ("bit-lines", "clock", "word-line").
	Label string
	// Csw is the average switched capacitance, including activity.
	Csw units.Farads
	// Vswing is the voltage range the capacitance switches over.
	// Zero means full rail (VDD), the common digital CMOS case.
	Vswing units.Volts
	// Freq is the switching frequency of this node group.
	Freq units.Hertz
}

// StaticTerm is one static term of EQ 1: a constant current draw.
type StaticTerm struct {
	// Label names the source ("bias", "leakage", "sense amps").
	Label string
	// I is the current drawn from the supply.
	I units.Amps
}

// Estimate is the result of evaluating a model at a parameter point.
type Estimate struct {
	// VDD is the supply the estimate was evaluated at.
	VDD units.Volts
	// Dynamic holds the capacitive terms of EQ 1.
	Dynamic []Contribution
	// Static holds the current terms of EQ 1.
	Static []StaticTerm
	// Area is the first-order active area of the component.
	Area units.SquareMeters
	// Delay is the first-order critical-path delay per operation.
	Delay units.Seconds
	// Notes carries modeling caveats for the documentation pane
	// ("signal correlations neglected — conservatively high").
	Notes []string
}

// Totals reduces the estimate's EQ 1 terms in one pass: the total
// power, its dynamic (capacitive-switching) and static (I·VDD) parts,
// and the supply energy drawn per operation assuming every dynamic term
// fires once per operation, Σ C·Vswing·VDD — the "energy/access" column
// of the paper's spreadsheets.  Each sum runs in term order, and the
// total continues from the dynamic sum with the static terms, so
// power, dynamic and static are the bits model.SweepForm.EvalCols
// produces for a form's Estimate.
func (e *Estimate) Totals() (power, dynamic, static units.Watts, energy units.Joules) {
	vdd := float64(e.VDD)
	var p, s, j float64
	for _, c := range e.Dynamic {
		swing := float64(c.Vswing)
		if swing == 0 {
			swing = vdd
		}
		cv := float64(c.Csw) * swing * vdd
		j += cv
		p += cv * float64(c.Freq)
	}
	dyn := p
	for _, t := range e.Static {
		v := float64(t.I) * vdd
		p += v
		s += v
	}
	return units.Watts(p), units.Watts(dyn), units.Watts(s), units.Joules(j)
}

// Power evaluates EQ 1: total average power of the estimate.
func (e *Estimate) Power() units.Watts {
	p, _, _, _ := e.Totals()
	return p
}

// DynamicPower returns only the capacitive-switching portion of EQ 1.
func (e *Estimate) DynamicPower() units.Watts {
	_, d, _, _ := e.Totals()
	return d
}

// StaticPower returns only the I·VDD portion of EQ 1.
func (e *Estimate) StaticPower() units.Watts {
	_, _, s, _ := e.Totals()
	return s
}

// SwitchedCap returns the total effective switched capacitance,
// Σ Csw,ᵢ, ignoring swing and frequency differences.  This is the C_T
// the paper's computational-block models characterize.
func (e *Estimate) SwitchedCap() units.Farads {
	var c units.Farads
	for _, t := range e.Dynamic {
		c += t.Csw
	}
	return c
}

// EnergyPerOp returns the supply energy drawn per operation (see
// Totals).
func (e *Estimate) EnergyPerOp() units.Joules {
	_, _, _, j := e.Totals()
	return j
}

// AddCap appends a full-swing dynamic contribution.
func (e *Estimate) AddCap(label string, c units.Farads, f units.Hertz) {
	if e.Dynamic == nil {
		// Most models contribute a handful of terms; one right-sized
		// allocation beats append's doubling walk on the hot
		// evaluation path.
		e.Dynamic = make([]Contribution, 0, 4)
	}
	e.Dynamic = append(e.Dynamic, Contribution{Label: label, Csw: c, Freq: f})
}

// AddSwing appends a partial-swing dynamic contribution (EQ 8).
func (e *Estimate) AddSwing(label string, c units.Farads, swing units.Volts, f units.Hertz) {
	if e.Dynamic == nil {
		e.Dynamic = make([]Contribution, 0, 4)
	}
	e.Dynamic = append(e.Dynamic, Contribution{Label: label, Csw: c, Vswing: swing, Freq: f})
}

// AddStatic appends a static current term.
func (e *Estimate) AddStatic(label string, i units.Amps) {
	e.Static = append(e.Static, StaticTerm{Label: label, I: i})
}

// Note records a modeling caveat.  A constant note (no args, no verb)
// is appended as it is: Sprintf would return it unchanged, and models
// attach such notes on every evaluation of a sweep.
func (e *Estimate) Note(format string, args ...any) {
	if len(args) == 0 && strings.IndexByte(format, '%') < 0 {
		e.Notes = append(e.Notes, format)
		return
	}
	e.Notes = append(e.Notes, fmt.Sprintf(format, args...))
}

// Class enumerates the component classes of the paper's Models section.
type Class string

// Component classes.
const (
	Computation  Class = "computation"
	Storage      Class = "storage"
	Controller   Class = "controller"
	Interconnect Class = "interconnect"
	Processor    Class = "processor"
	Analog       Class = "analog"
	Converter    Class = "converter"
	Commodity    Class = "commodity" // data-sheet components (LCDs, radios)
	Macro        Class = "macro"     // a lumped sub-design
)

// Info describes a model for menus, input forms and documentation pages.
type Info struct {
	// Name is the unique library name ("ucb.mult.array").
	Name string
	// Title is the human-readable name ("Array multiplier").
	Title string
	// Class is the component class.
	Class Class
	// Doc is the integrated documentation shown from hyperlinks.
	Doc string
	// Params is the parameter schema, in display order.
	Params []Param
}

// Model is a parameterized power/area/delay model: the element every
// PowerPlay library entry implements.
type Model interface {
	// Info returns the model's descriptor.
	Info() Info
	// Evaluate computes the estimate at a parameter point.  The point
	// has already been validated and defaulted against Info().Params.
	Evaluate(p Params) (*Estimate, error)
}

// Volatile is an optional interface a Model may implement to declare
// that Evaluate can answer differently for identical parameters over
// time — a remote proxy whose publishing site may change or recover,
// for example.  Machinery that reuses past evaluations across calls
// (the incremental Play engine, hoisted sweep baselines) must re-run
// rows whose model reports Volatile() true; everything else may assume
// a model is a pure function of its parameters for as long as the
// registry generation holds still.
type Volatile interface {
	// Volatile reports whether identical parameter points may evaluate
	// to different estimates over time.
	Volatile() bool
}

// IsVolatile reports whether m declares itself volatile.
func IsVolatile(m Model) bool {
	v, ok := m.(Volatile)
	return ok && v.Volatile()
}

// Params is a parameter valuation.
type Params map[string]float64

// Get returns the named parameter or its fallback.
func (p Params) Get(name string, fallback float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return fallback
}

// VDD returns the supply voltage parameter (default 0 — models should
// validate with a schema default instead of relying on this).
func (p Params) VDD() units.Volts { return units.Volts(p[ParamVDD]) }

// Freq returns the operating frequency parameter.
func (p Params) Freq() units.Hertz { return units.Hertz(p[ParamFreq]) }

// Clone returns an independent copy.
func (p Params) Clone() Params {
	q := make(Params, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// String renders the valuation deterministically for logs and tests.
func (p Params) String() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%g", k, p[k])
	}
	return b.String()
}
