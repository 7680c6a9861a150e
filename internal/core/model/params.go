package model

import (
	"fmt"
	"math"
)

// Param describes one input parameter of a model: the fields the web
// input form (Figure 4 of the paper) renders, and the constraints
// Validate enforces.
type Param struct {
	// Name is the parameter key ("bits", "words", "vdd").
	Name string
	// Doc is the one-line description shown next to the form field.
	Doc string
	// Unit is the display unit symbol ("V", "Hz", "F", ""), used only
	// for presentation.
	Unit string
	// Default is the value used when the caller does not bind the
	// parameter.
	Default float64
	// Min and Max bound the legal range when Min < Max.  When both are
	// zero the parameter is unconstrained.
	Min, Max float64
	// Integer requires a whole-number value.
	Integer bool
	// Options, when non-empty, restricts the parameter to an enumerated
	// choice (e.g. multiplier input correlation); forms render a menu.
	Options []Option
}

// Option is one enumerated choice of a Param.
type Option struct {
	// Label is the menu text ("uncorrelated inputs").
	Label string
	// Value is the numeric encoding stored in Params.
	Value float64
}

// Bounded reports whether the parameter carries a range constraint.
func (p *Param) Bounded() bool { return p.Min < p.Max }

// Check validates a single value against the parameter's constraints.
// Hot paths check through a pointer into a shared schema, so a call
// copies no Param.
func (p *Param) Check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("parameter %q: value must be finite, got %v", p.Name, v)
	}
	if p.Integer && v != math.Trunc(v) {
		return fmt.Errorf("parameter %q: must be an integer, got %v", p.Name, v)
	}
	if p.Bounded() && (v < p.Min || v > p.Max) {
		return fmt.Errorf("parameter %q: %v outside [%g, %g]", p.Name, v, p.Min, p.Max)
	}
	if len(p.Options) > 0 {
		for _, o := range p.Options {
			if o.Value == v {
				return nil
			}
		}
		return fmt.Errorf("parameter %q: %v is not one of the allowed options", p.Name, v)
	}
	return nil
}

// Validate checks a parameter valuation against a schema and returns a
// complete copy with defaults filled in.  Unknown parameter names are
// rejected, except the conventional scope parameters (vdd, f, tech),
// which are always allowed through so that enclosing-sheet globals can
// be handed to any model.
//
// A registered model's schema is built once, by Register; callers
// validating against one repeatedly (the compiled sheet plan, the
// interpreter) take it from Registry.Resolve instead of paying the
// per-call index construction this function does.
func Validate(schema []Param, in Params) (Params, error) {
	return newSchema("", schema).Validate(in)
}

// Schema is a model's indexed parameter schema: the reusable form of
// Validate, and the prefix Evaluate puts on the model's errors.  The
// registry builds one per registered model; a Schema is immutable and
// safe for concurrent use.
type Schema struct {
	name   string
	params []Param
	known  map[string]int // name → index in params
}

// newSchema indexes a model's parameter schema for repeated validation.
func newSchema(name string, params []Param) *Schema {
	s := &Schema{name: name, params: params, known: make(map[string]int, len(params))}
	for i := range params {
		s.known[params[i].Name] = i
	}
	return s
}

// Params returns the schema's parameter list, in declaration order.
func (s *Schema) Params() []Param { return s.params }

// Lookup returns the schema parameter with the given name: a pointer
// into Params, shared by every caller and not to be modified.
func (s *Schema) Lookup(name string) (*Param, bool) {
	i, ok := s.known[name]
	if !ok {
		return nil, false
	}
	return &s.params[i], true
}

// Validate checks a valuation against the schema and returns a complete
// copy with defaults filled in — semantics identical to the package-
// level Validate.
// Validation order is deterministic regardless of map iteration order:
// schema parameters are checked in declaration order, so when several
// bound values are invalid at once, the error is always the first
// offender by schema position.  Unknown names are reported in sorted
// order.  Evaluate validates through here.  The compiled plan checks
// each row against its own precomputed schedule instead and, when that
// check fails, re-runs the row through its schema's Evaluate, so this
// ordering words every validation error the engines report.
func (s *Schema) Validate(in Params) (Params, error) {
	out := make(Params, len(s.params)+3)
	known := 0
	for i := range s.params {
		p := &s.params[i]
		v, ok := in[p.Name]
		if !ok {
			out[p.Name] = p.Default
			continue
		}
		known++
		if err := p.Check(v); err != nil {
			return nil, err
		}
		out[p.Name] = v
	}
	for _, name := range [...]string{ParamVDD, ParamFreq, ParamTech} {
		if _, inSchema := s.known[name]; inSchema {
			continue
		}
		if v, ok := in[name]; ok {
			known++
			out[name] = v
		}
	}
	if known != len(in) {
		unknown := ""
		for name := range in {
			if _, ok := s.known[name]; ok {
				continue
			}
			switch name {
			case ParamVDD, ParamFreq, ParamTech:
				continue
			}
			if unknown == "" || name < unknown {
				unknown = name
			}
		}
		return nil, fmt.Errorf("unknown parameter %q", unknown)
	}
	return out, nil
}

// Std returns the conventional scope parameters that nearly every model
// shares, with library-wide defaults: 1.5 V supply (the UCB low-power
// process operating point) and a 1 MHz default frequency.
func Std() []Param {
	return []Param{
		{Name: ParamVDD, Doc: "supply voltage", Unit: "V", Default: 1.5, Min: 0.5, Max: 10},
		{Name: ParamFreq, Doc: "operating frequency", Unit: "Hz", Default: 1e6, Min: 0, Max: 10e9},
		{Name: ParamTech, Doc: "feature size (0 = library reference)", Unit: "m", Default: 0, Min: 0, Max: 1e-5},
	}
}

// WithStd prepends the conventional scope parameters to a model-specific
// schema.
func WithStd(params ...Param) []Param {
	return append(Std(), params...)
}

// Evaluate validates p against m's schema and evaluates the model: the
// single entry point callers outside a model implementation should use.
func Evaluate(m Model, p Params) (*Estimate, error) {
	info := m.Info()
	return newSchema(info.Name, info.Params).Evaluate(m, p)
}

// Evaluate validates p against the schema and evaluates m, whose
// schema it is, prefixing any error with the model's name: Evaluate
// without rebuilding the schema.
func (s *Schema) Evaluate(m Model, p Params) (*Estimate, error) {
	full, err := s.Validate(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	est, err := m.Evaluate(full)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return est, nil
}
