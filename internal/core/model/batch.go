package model

import "powerplay/internal/units"

// Sweep forms: a model's EQ 1 terms, written once.
//
// A sweep holds every structural parameter of a row fixed — bit widths,
// memory organization, activity, technology — and varies only the
// operating point (vdd, f).  For every library model built on the EQ 1
// template, the estimate at fixed structure is then a closed form in
// vdd and f:
//
//	P(vdd, f) = Σᵢ Csw,ᵢ · swingᵢ(vdd) · vdd · fᵢ(f)  +  Σⱼ Iⱼ · vdd
//	delay(vdd) = Delay0 · DelayScale(vdd)
//	area       = const
//
// SweepForm captures exactly that closed form.  A model that publishes
// one computes its terms, area and Delay0 there and nowhere else: its
// Evaluate builds the form at the point and returns the form's
// Estimate.  The sheet's batch executor runs the same form over whole
// columns of operating points through EvalCols — no Estimate, no
// parameter map, no per-point model dispatch.  The scalar and columnar
// paths therefore share every model expression; the one pair still
// matched by hand is EvalCols against Estimate.Totals, which
// FuzzEvalColsMatchesEstimate checks bit for bit.

// A form holds at most two dynamic terms and one static current, the
// most any library model emits; the fixed arrays let Evaluate build a
// form on its stack.
const (
	maxSweepTerms    = 2
	maxSweepCurrents = 1
)

// SweepTerm is one dynamic EQ 1 term of a sweep form: a capacitance
// lump whose per-point power is ((Csw·swing)·vdd)·freq, with swing and
// freq resolved per the field rules below.
type SweepTerm struct {
	// Label names the node group, as Contribution.Label.
	Label string
	// Csw is the switched capacitance in farads, with every structural
	// factor (activity folded into capacitance, technology scale)
	// already applied.
	Csw float64
	// Swing is the voltage swing; zero means full rail (the point's
	// vdd), mirroring Contribution.Vswing.
	Swing float64
	// FMul scales the point's f to this term's switching frequency (an
	// activity or clock-divider factor).  Ignored when FConst is set.
	FMul float64
	// FConst, when nonzero, is an absolute switching frequency
	// independent of the swept f (a DRAM refresh clock).
	FConst float64
}

// freq is the term's switching frequency at operating frequency f.
func (t *SweepTerm) freq(f float64) float64 {
	switch {
	case t.FConst != 0:
		return t.FConst
	case t.FMul == 1:
		return f
	}
	return f * t.FMul
}

// SweepForm is a model's estimate at fixed structural parameters,
// closed over the operating point.  It is a plain value: immutable once
// built and safe to share across chunks and goroutines.
type SweepForm struct {
	// dyn[:nDyn] holds the dynamic terms in the order the Estimate
	// lists its Contributions (power sums are order-sensitive in
	// floating point); static[:nStatic] the static currents.
	dyn     [maxSweepTerms]SweepTerm
	nDyn    int
	static  [maxSweepCurrents]StaticTerm
	nStatic int
	// Area is the (operating-point-independent) area in square meters.
	Area float64
	// Delay0 is the delay at the reference supply with every structural
	// factor applied; per-point delay is Delay0 · DelayScale(vdd).
	Delay0 float64
}

// AddTerm appends a dynamic term.
func (sf *SweepForm) AddTerm(t SweepTerm) {
	sf.dyn[sf.nDyn] = t
	sf.nDyn++
}

// AddCurrent appends a static current of i amps.
func (sf *SweepForm) AddCurrent(label string, i float64) {
	sf.static[sf.nStatic] = StaticTerm{Label: label, I: units.Amps(i)}
	sf.nStatic++
}

// SweepFormer is the Model extension that publishes a closed form.
// SweepForm returns the model's form at the given (validated and
// defaulted) parameter point, reading only structural parameters —
// vdd and f in p are placeholders and must not influence the form.
// Returning ok == false means "no closed form at these parameters"; the
// batch executor then prices the row per point through Evaluate.
//
// The contract runs the other way from a hand-kept copy: Evaluate is
// derived from the form (SweepForm then Estimate), so the kernel and
// scalar paths cannot drift apart.
type SweepFormer interface {
	SweepForm(p Params) (sf SweepForm, ok bool)
}

// Estimate evaluates the form at p's operating point: one Contribution
// per dynamic term and one StaticTerm per current, in form order, with
// the form's area and Delay0 scaled to p's supply.  Notes are left to
// the model.
func (sf *SweepForm) Estimate(p Params) *Estimate {
	vdd, f := p.VDD(), float64(p.Freq())
	e := &Estimate{
		VDD:   vdd,
		Area:  units.SquareMeters(sf.Area),
		Delay: units.Seconds(sf.Delay0 * DelayScale(float64(vdd))),
	}
	if sf.nDyn > 0 {
		e.Dynamic = make([]Contribution, sf.nDyn)
		for i := range e.Dynamic {
			t := &sf.dyn[i]
			e.Dynamic[i] = Contribution{Label: t.Label, Csw: units.Farads(t.Csw),
				Vswing: units.Volts(t.Swing), Freq: units.Hertz(t.freq(f))}
		}
	}
	if sf.nStatic > 0 {
		e.Static = append([]StaticTerm(nil), sf.static[:sf.nStatic]...)
	}
	return e
}

// DelayScaleCols fills ds[i] = DelayScale(vdd[i]) for points 0..n-1.
// The two math.Pow calls inside DelayScale dominate a columnar row
// evaluation, so callers memoize the result per vdd column and share it
// across every row reading that column.
func DelayScaleCols(ds, vdd []float64, n int) {
	for i := 0; i < n; i++ {
		ds[i] = DelayScale(vdd[i])
	}
}

// EvalCols evaluates the form for points 0..n-1: vdd and f are the
// operating-point columns, ds is the matching DelayScale column (see
// DelayScaleCols), and the five result columns receive exactly what
// Estimate.Totals, Area and Delay give for the form's Estimate at each
// point.
func (sf *SweepForm) EvalCols(vdd, f, ds, pw, dyn, stat, area, delay []float64, n int) {
	for i := 0; i < n; i++ {
		dyn[i] = 0
	}
	for _, t := range sf.dyn[:sf.nDyn] {
		// Each loop is Totals' per-term expression
		// ((Csw·swing)·VDD)·Freq with freq resolved as SweepTerm.freq
		// does.  Csw·Swing is hoisted when the swing is fixed (both
		// factors constant, so the product is the same bits every
		// iteration).
		switch {
		case t.FConst != 0 && t.Swing == 0:
			for i := 0; i < n; i++ {
				dyn[i] += t.Csw * vdd[i] * vdd[i] * t.FConst
			}
		case t.FConst != 0:
			cs := t.Csw * t.Swing
			for i := 0; i < n; i++ {
				dyn[i] += cs * vdd[i] * t.FConst
			}
		case t.Swing == 0 && t.FMul == 1:
			for i := 0; i < n; i++ {
				dyn[i] += t.Csw * vdd[i] * vdd[i] * f[i]
			}
		case t.Swing == 0:
			for i := 0; i < n; i++ {
				dyn[i] += t.Csw * vdd[i] * vdd[i] * (f[i] * t.FMul)
			}
		case t.FMul == 1:
			cs := t.Csw * t.Swing
			for i := 0; i < n; i++ {
				dyn[i] += cs * vdd[i] * f[i]
			}
		default:
			cs := t.Csw * t.Swing
			for i := 0; i < n; i++ {
				dyn[i] += cs * vdd[i] * (f[i] * t.FMul)
			}
		}
	}
	// Totals continues the power sum from the dynamic total with the
	// static terms and accumulates the same I·vdd products from zero
	// for the static part.
	copy(pw[:n], dyn[:n])
	for i := 0; i < n; i++ {
		stat[i] = 0
	}
	for _, s := range sf.static[:sf.nStatic] {
		cur := float64(s.I)
		for i := 0; i < n; i++ {
			v := cur * vdd[i]
			pw[i] += v
			stat[i] += v
		}
	}
	for i := 0; i < n; i++ {
		area[i] = sf.Area
	}
	for i := 0; i < n; i++ {
		delay[i] = sf.Delay0 * ds[i]
	}
}
