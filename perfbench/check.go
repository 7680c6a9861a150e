package main

import (
	"bytes"
	"context"
	"fmt"
	"html"
	"math/rand"
	"regexp"
	"strings"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/expr"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/units"
	"powerplay/internal/vqsim"
)

// The correctness checker.  The benchmark keeps a shadow copy of every
// sheet it touches, applies the same edits through the sheet package's
// public functions, and compares the numbers each page shows with its
// own evaluation formatted through units — the way the server formats
// them.  A mismatch, an evaluation error on a 200 page, or an
// unexpected status counts the operation as failed; it never aborts
// the run.

// siteRegistry builds the model namespace cmd/powerplay -seed serves:
// the standard library plus the luminance macro the InfoPad build
// registers.
func siteRegistry() (*model.Registry, error) {
	reg := library.Standard()
	if _, err := vqsim.Luminance1(reg); err != nil {
		return nil, err
	}
	if _, err := vqsim.Luminance2(reg); err != nil {
		return nil, err
	}
	if _, err := infopad.Build(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// shadowSheet is the benchmark's own copy of one sheet's state.
type shadowSheet struct {
	d *sheet.Design
	// version counts the edits applied; etagVersion is the version the
	// last seen ETag was served at.
	version     int
	etag        string
	etagVersion int
	cells       []string // expected number cells at version; nil = not computed
	cellsAt     int
	err         error
}

// newShadow parses a design serialization into a shadow sheet.
func newShadow(blob []byte, reg *model.Registry) (*shadowSheet, error) {
	d, err := sheet.ParseDesign(blob, reg)
	if err != nil {
		return nil, fmt.Errorf("shadow: %w", err)
	}
	return &shadowSheet{d: d, cellsAt: -1}, nil
}

// applyPlay mirrors the Play handler: every edited cell, then the
// recompute.  hook, when non-nil, wraps each layer call in a span.
func (s *shadowSheet) applyPlay(edits []edit, hook *spanHook) error {
	var firstErr error
	for _, e := range edits {
		m, err := playMutation(e)
		if err != nil {
			return err
		}
		hook.span("expr.compile", func() { _, err = expr.Compile(m.Expr) })
		if err != nil {
			return fmt.Errorf("shadow: compiling %s=%q: %w", e.field, e.value, err)
		}
		hook.span("sheet.apply", func() { err = s.d.ApplyMutation(m) })
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		hook.record(s.d, m)
	}
	var err error
	touch := sheet.Mutation{Op: sheet.MutTouch}
	hook.span("sheet.apply", func() { err = s.d.ApplyMutation(touch) })
	if err != nil {
		return err
	}
	hook.record(s.d, touch)
	s.version++
	return firstErr
}

// applyRows mirrors the rows handler's Add and Remove actions.
func (s *shadowSheet) applyRows(o op, hook *spanHook) error {
	m := sheet.Mutation{Op: sheet.MutAddRow, Name: o.row, Model: o.model}
	if !o.add {
		m = sheet.Mutation{Op: sheet.MutRemoveRow, Name: o.row}
	}
	var err error
	hook.span("sheet.apply", func() { err = s.d.ApplyMutation(m) })
	if err != nil {
		return fmt.Errorf("shadow: %v row %s: %w", m.Op, o.row, err)
	}
	hook.record(s.d, m)
	s.version++
	return nil
}

// playMutation turns one Play-form field into the mutation the server
// derives from it.
func playMutation(e edit) (sheet.Mutation, error) {
	switch {
	case strings.HasPrefix(e.field, "glob_"):
		return sheet.Mutation{Op: sheet.MutSetGlobal, Name: strings.TrimPrefix(e.field, "glob_"), Expr: e.value}, nil
	case strings.HasPrefix(e.field, "row_"):
		path, param, ok := strings.Cut(strings.TrimPrefix(e.field, "row_"), "|")
		if ok {
			return sheet.Mutation{Op: sheet.MutSetParam, Path: path, Name: param, Expr: e.value}, nil
		}
	}
	return sheet.Mutation{}, fmt.Errorf("shadow: unknown form field %q", e.field)
}

// expected returns the number cells the sheet page must show at the
// shadow's current version.  play selects the incremental engine (the
// server's Play and miss path) over a from-scratch Design.Evaluate;
// both are bit-identical, so the choice only decides which layer the
// traced run attributes the time to.
func (s *shadowSheet) expected(hook *spanHook, play bool) ([]string, error) {
	if s.cellsAt == s.version {
		return s.cells, s.err
	}
	var res *sheet.Result
	var err error
	if play {
		hook.span("sheet.play", func() { res, _, err = s.d.IncrementalEngine().Play() })
	} else {
		hook.span("sheet.evaluate", func() { res, err = s.d.Evaluate() })
	}
	s.cells, s.err, s.cellsAt = nil, err, s.version
	if err == nil {
		s.cells = sheetCells(s.d, res)
	}
	return s.cells, s.err
}

// sheetCells lays out the page's number cells in document order: four
// per row (energy/op, power, area, delay), one per top-level variable,
// then the three totals.
func sheetCells(d *sheet.Design, root *sheet.Result) []string {
	var out []string
	var walk func(n *sheet.Node, r *sheet.Result, depth int)
	walk = func(n *sheet.Node, r *sheet.Result, depth int) {
		if depth > 0 {
			energy := ""
			if r.Estimate != nil {
				energy = units.Sci(float64(r.EnergyPerOp), "J")
			}
			out = append(out, energy, units.Sci(float64(r.Power), "W"), r.Area.String(), r.Delay.String())
		}
		for i, c := range n.Children {
			walk(c, r.Children[i], depth+1)
		}
	}
	walk(d.Root, root, 0)
	for _, g := range d.Root.Globals {
		v := ""
		if c, ok := g.Expr.Const(); ok {
			v = fmt.Sprintf("%g", c)
		}
		out = append(out, v)
	}
	return append(out, units.Sci(float64(root.Power), "W"), root.Area.String(), root.Delay.String())
}

var errPara = regexp.MustCompile(`<p class="err">(.*?)</p>`)

// pageCells extracts the number cells of a page, unescaped, with any
// degraded-mode note dropped.  A plain scan: a regexp over every page
// would make the generator, not the server, the bottleneck.
func pageCells(body []byte) []string {
	const open, closing = `<td class="num">`, `</td>`
	var out []string
	for {
		i := bytes.Index(body, []byte(open))
		if i < 0 {
			return out
		}
		body = body[i+len(open):]
		j := bytes.Index(body, []byte(closing))
		if j < 0 {
			return out
		}
		cell := body[:j]
		body = body[j+len(closing):]
		if k := bytes.Index(cell, []byte(` <span class="stale"`)); k >= 0 {
			cell = cell[:k]
		}
		if bytes.IndexByte(cell, '&') >= 0 {
			out = append(out, html.UnescapeString(string(cell)))
		} else {
			out = append(out, string(cell))
		}
	}
}

// pageError returns the evaluation error a page carries, if any.
func pageError(body []byte) (string, bool) {
	if !bytes.Contains(body, []byte(`<p class="err">`)) {
		return "", false // the common case, without the regexp's cost
	}
	m := errPara.FindSubmatch(body)
	if m == nil {
		return "", false
	}
	return html.UnescapeString(string(m[1])), true
}

// checkSheetPage compares a sheet page with the expected cells.
func checkSheetPage(body []byte, want []string) error {
	if msg, bad := pageError(body); bad {
		return fmt.Errorf("page carries an evaluation error: %s", msg)
	}
	got := pageCells(body)
	if len(got) != len(want) {
		return fmt.Errorf("page shows %d number cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("number cell %d reads %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// sweepChecks is how many points of each sweep the checker re-prices
// itself (the end points plus random interior ones); every row's
// variable value is checked.
const sweepChecks = 4

// checkSweepPage compares a sweep page with the shadow: the row count,
// every row's swept value, and the totals of sampled points priced
// through explore.Runner on the shadow design.
func checkSweepPage(body []byte, d *sheet.Design, s sweepSpec, rng *rand.Rand) error {
	if msg, bad := pageError(body); bad {
		return fmt.Errorf("sweep page carries an error: %s", msg)
	}
	from, err := units.Parse(s.from)
	if err != nil {
		return err
	}
	to, err := units.Parse(s.to)
	if err != nil {
		return err
	}
	values := explore.Linspace(from, to, s.steps)
	got := pageCells(body)
	if len(got) != 4*len(values) {
		return fmt.Errorf("sweep page shows %d number cells, want %d", len(got), 4*len(values))
	}
	for i, v := range values {
		if want := fmt.Sprintf("%.4g", v); got[4*i] != want {
			return fmt.Errorf("sweep row %d value reads %q, want %q", i, got[4*i], want)
		}
	}
	idx := []int{0, len(values) - 1}
	for len(idx) < sweepChecks && len(values) > 2 {
		idx = append(idx, 1+rng.Intn(len(values)-2))
	}
	sample := make([]float64, len(idx))
	for i, k := range idx {
		sample[i] = values[k]
	}
	pts, err := (&explore.Runner{Workers: 1}).Sweep(context.Background(), d, s.variable, sample)
	if err != nil {
		return fmt.Errorf("shadow sweep: %w", err)
	}
	for i, k := range idx {
		p := pts[i]
		want := []string{units.Watts(p.Power).String(), units.SquareMeters(p.Area).String(), units.Seconds(p.Delay).String()}
		for j, w := range want {
			if g := got[4*k+1+j]; g != w {
				return fmt.Errorf("sweep row %d (%s=%s) column %d reads %q, want %q", k, s.variable, got[4*k], j+1, g, w)
			}
		}
	}
	return nil
}

// failureLog counts failures by reason and keeps the first few in full.
type failureLog struct {
	n      int64
	first  []string
	counts map[string]int64
}

const failuresShown = 5

func (f *failureLog) add(what string, err error) {
	f.n++
	if f.counts == nil {
		f.counts = map[string]int64{}
	}
	f.counts[reasonKey(err.Error())]++
	if len(f.first) < failuresShown {
		f.first = append(f.first, what+": "+err.Error())
	}
}

func (f *failureLog) merge(o *failureLog) {
	f.n += o.n
	for k, v := range o.counts {
		if f.counts == nil {
			f.counts = map[string]int64{}
		}
		f.counts[k] += v
	}
	for _, s := range o.first {
		if len(f.first) < failuresShown {
			f.first = append(f.first, s)
		}
	}
}

// reasonKey groups failure messages that differ only in their numbers.
func reasonKey(msg string) string {
	var b bytes.Buffer
	digits := false
	for _, r := range msg {
		if r >= '0' && r <= '9' {
			if !digits {
				b.WriteByte('#')
			}
			digits = true
			continue
		}
		digits = false
		b.WriteRune(r)
	}
	if b.Len() > 160 {
		return b.String()[:160]
	}
	return b.String()
}
