package sheet

import (
	"fmt"

	"powerplay/internal/core/model"
	"powerplay/internal/units"
)

// Macro lumps a whole design into a single reusable library model — the
// hierarchical macro-modeling the paper calls crucial for system-level
// work: the video-decompression sheet becomes one row of the portable
// terminal's sheet.
//
// The macro's parameters are the design's root globals; its defaults
// are their values when the macro was made.  Evaluation re-plays the
// inner sheet at the caller's parameter point, so supply-voltage and
// frequency scaling flow through the hierarchy exactly as if the
// sub-design were inlined.
type Macro struct {
	info   model.Info // fixed by NewMacro
	design *Design
	note   string // precomputed lump note
}

// NewMacro wraps a design as a model.  Every root global whose binding
// is a constant when NewMacro is called becomes a macro parameter with
// that default; expression-valued globals stay internal.  The parameter
// list is fixed here, as a registered model's Info must be: editing the
// inner design's globals afterwards changes neither the macro's
// parameters nor their defaults.
func NewMacro(name, title, doc string, d *Design) (*Macro, error) {
	if name == "" {
		return nil, fmt.Errorf("sheet: macro needs a name")
	}
	if d == nil || d.Root == nil {
		return nil, fmt.Errorf("sheet: macro %q needs a design", name)
	}
	// A macro must evaluate on its own before being published.
	if _, err := d.Evaluate(); err != nil {
		return nil, fmt.Errorf("sheet: macro %q: design does not evaluate: %w", name, err)
	}
	info := model.Info{Name: name, Title: title, Class: model.Macro, Doc: doc}
	for _, g := range d.Root.Globals {
		if v, ok := g.Expr.Const(); ok {
			info.Params = append(info.Params, model.Param{Name: g.Name, Doc: "macro parameter (root variable)", Default: v})
		}
	}
	return &Macro{
		info: info, design: d,
		note: fmt.Sprintf("macro of design %q: %d rows lumped", d.Name, countRows(d.Root)),
	}, nil
}

// Info implements model.Model.
func (m *Macro) Info() model.Info { return m.info }

// Evaluate implements model.Model: re-play the inner design with the
// caller's bindings overriding the root globals.
func (m *Macro) Evaluate(p model.Params) (*model.Estimate, error) {
	overrides := make(map[string]float64, len(p))
	for k, v := range p {
		overrides[k] = v
	}
	power, area, delay, err := m.design.EvaluateTotals(overrides)
	if err != nil {
		return nil, fmt.Errorf("macro %q: %w", m.info.Name, err)
	}
	vdd := units.Volts(p.Get(model.ParamVDD, 0))
	if vdd == 0 {
		// Fall back to the design's own supply variable, if any.
		if e := m.design.Root.Global(model.ParamVDD); e != nil {
			if v, ok := e.Const(); ok {
				vdd = units.Volts(v)
			}
		}
	}
	if vdd == 0 {
		vdd = model.RefVDD
	}
	est := &model.Estimate{VDD: vdd}
	// The inner evaluation already priced everything at the overridden
	// operating point, so the lump is an equivalent static draw.
	est.AddStatic("macro total", units.Amps(power/float64(vdd)))
	est.Area = units.SquareMeters(area)
	est.Delay = units.Seconds(delay)
	est.Notes = append(est.Notes, m.note)
	return est, nil
}

// Volatile implements model.Volatile: a macro is only as pure as the
// models its inner design prices through, so it reports volatile when
// any reachable inner row resolves to a volatile model (a mounted
// remote library, or a nested macro over one).
func (m *Macro) Volatile() bool {
	volatile := false
	m.design.Root.Walk(func(n *Node) {
		if volatile || n.Model == "" {
			return
		}
		if inner, ok := m.design.Registry.Lookup(n.Model); ok && model.IsVolatile(inner) {
			volatile = true
		}
	})
	return volatile
}

func countRows(n *Node) int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}

var _ model.Model = (*Macro)(nil)
