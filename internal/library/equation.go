package library

import (
	"encoding/json"
	"fmt"

	"powerplay/internal/core/model"
	"powerplay/internal/expr"
	"powerplay/internal/units"
)

// Equation is a user-defined model, the kind entered through
// PowerPlay's interactive model-definition page: names, equations and
// documentation.  Each result quantity is an expression over the
// model's own parameters (plus vdd/f/tech), evaluated per the EQ 1
// template:
//
//	Csw     switched capacitance per operation (F)
//	Vswing  swing voltage; empty or 0 means full rail
//	Istatic static supply current (A)
//	Area    active area (m²)
//	Delay   critical path at the reference supply (s); voltage-scaled
//	Freq    switching frequency; defaults to "f"
//
// Equation is JSON-serializable, which is how user libraries persist on
// the server and travel between sites (Figures 6–7).
type Equation struct {
	// Name is the registry name; Title and Doc feed the generated
	// documentation page.
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	Class string `json:"class,omitempty"`
	Doc   string `json:"doc,omitempty"`
	// Params declares the model's own parameters.
	Params []EquationParam `json:"params,omitempty"`
	// The quantity expressions; empty strings mean "none"/default.
	Csw     string `json:"csw,omitempty"`
	Vswing  string `json:"vswing,omitempty"`
	Istatic string `json:"istatic,omitempty"`
	Area    string `json:"area,omitempty"`
	Delay   string `json:"delay,omitempty"`
	Freq    string `json:"freq,omitempty"`

	compiled *compiledEquation
}

// EquationParam is the JSON form of a parameter declaration.
type EquationParam struct {
	Name    string  `json:"name"`
	Doc     string  `json:"doc,omitempty"`
	Unit    string  `json:"unit,omitempty"`
	Default float64 `json:"default"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Integer bool    `json:"integer,omitempty"`
}

type compiledEquation struct {
	csw, vswing, istatic, area, delay, freq *expr.Expr
}

// Compile parses every expression; it must be called (directly or via
// ParseEquation) before Evaluate.
func (q *Equation) Compile() error {
	c := &compiledEquation{}
	compile := func(src, what string) (*expr.Expr, error) {
		if src == "" {
			return nil, nil
		}
		e, err := expr.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("model %q: %s: %w", q.Name, what, err)
		}
		return e, nil
	}
	var err error
	if c.csw, err = compile(q.Csw, "csw"); err != nil {
		return err
	}
	if c.vswing, err = compile(q.Vswing, "vswing"); err != nil {
		return err
	}
	if c.istatic, err = compile(q.Istatic, "istatic"); err != nil {
		return err
	}
	if c.area, err = compile(q.Area, "area"); err != nil {
		return err
	}
	if c.delay, err = compile(q.Delay, "delay"); err != nil {
		return err
	}
	freqSrc := q.Freq
	if freqSrc == "" {
		freqSrc = "f"
	}
	if c.freq, err = compile(freqSrc, "freq"); err != nil {
		return err
	}
	if c.csw == nil && c.istatic == nil {
		return fmt.Errorf("model %q: needs at least one of csw or istatic", q.Name)
	}
	q.compiled = c
	return nil
}

// Info implements model.Model.
func (q *Equation) Info() model.Info {
	params := model.WithStd()
	for _, p := range q.Params {
		params = append(params, model.Param{
			Name: p.Name, Doc: p.Doc, Unit: p.Unit,
			Default: p.Default, Min: p.Min, Max: p.Max, Integer: p.Integer,
		})
	}
	class := model.Class(q.Class)
	if q.Class == "" {
		class = model.Computation
	}
	return model.Info{Name: q.Name, Title: q.Title, Class: class, Doc: q.Doc, Params: params}
}

// Evaluate implements model.Model.
func (q *Equation) Evaluate(p model.Params) (*model.Estimate, error) {
	if q.compiled == nil {
		if err := q.Compile(); err != nil {
			return nil, err
		}
	}
	env := expr.MapEnv(p)
	eval := func(e *expr.Expr) (float64, error) {
		if e == nil {
			return 0, nil
		}
		return e.Eval(env)
	}
	c := q.compiled
	est := &model.Estimate{VDD: p.VDD()}
	csw, err := eval(c.csw)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", q.Name, err)
	}
	if csw < 0 {
		return nil, fmt.Errorf("model %q: negative capacitance %g", q.Name, csw)
	}
	if csw > 0 {
		swing, err := eval(c.vswing)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", q.Name, err)
		}
		freq, err := eval(c.freq)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", q.Name, err)
		}
		scale := model.CapScale(p[model.ParamTech])
		est.AddSwing("equation", units.Farads(csw*scale), units.Volts(swing), units.Hertz(freq))
	}
	ist, err := eval(c.istatic)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", q.Name, err)
	}
	if ist != 0 {
		est.AddStatic("equation", units.Amps(ist))
	}
	area, err := eval(c.area)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", q.Name, err)
	}
	est.Area = units.SquareMeters(area)
	delay, err := eval(c.delay)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", q.Name, err)
	}
	if delay > 0 {
		est.Delay = units.Seconds(delay * model.DelayScale(float64(p.VDD())))
	}
	est.Note("user-defined equation model")
	return est, nil
}

// ParseEquation decodes and compiles a JSON model definition.
func ParseEquation(data []byte) (*Equation, error) {
	var q Equation
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("library: bad model JSON: %w", err)
	}
	if q.Name == "" {
		return nil, fmt.Errorf("library: model JSON missing name")
	}
	if err := q.Compile(); err != nil {
		return nil, err
	}
	return &q, nil
}

// LoadEquations reads a JSON array of model definitions, compiling and
// registering each.
func LoadEquations(r *model.Registry, data []byte) (int, error) {
	var defs []json.RawMessage
	if err := json.Unmarshal(data, &defs); err != nil {
		return 0, fmt.Errorf("library: bad model list JSON: %w", err)
	}
	for i, raw := range defs {
		q, err := ParseEquation(raw)
		if err != nil {
			return i, err
		}
		if err := r.Register(q); err != nil {
			return i, err
		}
	}
	return len(defs), nil
}

// DumpEquations serializes every Equation model in the registry as a
// JSON array — the wire format of the remote-library protocol.
func DumpEquations(r *model.Registry) ([]byte, error) {
	var defs []*Equation
	for _, name := range r.Names() {
		m, _ := r.Lookup(name)
		if q, ok := m.(*Equation); ok {
			defs = append(defs, q)
		}
	}
	return json.MarshalIndent(defs, "", "  ")
}

var _ model.Model = (*Equation)(nil)
