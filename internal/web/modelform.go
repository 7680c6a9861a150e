package web

import (
	"fmt"
	"net/http"
	"strings"

	"powerplay/internal/core/model"
	"powerplay/internal/library"
	"powerplay/internal/store"
	"powerplay/internal/units"
)

// The interactive model-definition page: "PowerPlay also provides a
// simple method for users to define models for their own primitives
// using an interactive HTML page.  The user is prompted for names,
// equations, and documentation information."

type modelFormPage struct {
	base
	Name, TitleField, ParamsField          string
	Csw, Vswing, Istatic, AreaField, Delay string
	Freq, DocField                         string
	Classes                                []string
}

func (s *Server) modelFormPage() modelFormPage {
	return modelFormPage{
		base: s.base("Define a New Model"),
		Classes: []string{
			string(model.Computation), string(model.Storage), string(model.Controller),
			string(model.Interconnect), string(model.Processor), string(model.Analog),
			string(model.Converter), string(model.Commodity),
		},
	}
}

func (s *Server) handleModelForm(w http.ResponseWriter, r *http.Request, u *User) {
	s.render(w, "modelform", s.modelFormPage())
}

// handleModelEdit pre-fills the definition form from an existing user
// model, so equation models are editable in place.
func (s *Server) handleModelEdit(w http.ResponseWriter, r *http.Request, u *User) {
	name := r.PathValue("name")
	m, ok := s.registry.Lookup(name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	q, ok := m.(*library.Equation)
	if !ok {
		http.Error(w, "powerplay: only user-defined equation models are editable", http.StatusForbidden)
		return
	}
	page := s.modelFormPage()
	page.Name = q.Name
	page.TitleField = q.Title
	page.Csw = q.Csw
	page.Vswing = q.Vswing
	page.Istatic = q.Istatic
	page.AreaField = q.Area
	page.Delay = q.Delay
	page.Freq = q.Freq
	page.DocField = q.Doc
	var lines []string
	for _, p := range q.Params {
		line := fmt.Sprintf("%s %g", p.Name, p.Default)
		if p.Min < p.Max {
			line += fmt.Sprintf(" %g %g", p.Min, p.Max)
		}
		if p.Integer {
			line += " int"
		}
		lines = append(lines, line)
	}
	page.ParamsField = strings.Join(lines, "\n")
	s.render(w, "modelform", page)
}

func (s *Server) handleModelCreate(w http.ResponseWriter, r *http.Request, u *User) {
	page := s.modelFormPage()
	page.Name = strings.TrimSpace(r.FormValue("name"))
	page.TitleField = strings.TrimSpace(r.FormValue("title"))
	page.ParamsField = r.FormValue("params")
	page.Csw = strings.TrimSpace(r.FormValue("csw"))
	page.Vswing = strings.TrimSpace(r.FormValue("vswing"))
	page.Istatic = strings.TrimSpace(r.FormValue("istatic"))
	page.AreaField = strings.TrimSpace(r.FormValue("area"))
	page.Delay = strings.TrimSpace(r.FormValue("delay"))
	page.Freq = strings.TrimSpace(r.FormValue("freq"))
	page.DocField = strings.TrimSpace(r.FormValue("doc"))

	fail := func(err error) {
		page.Error = err.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "modelform", page)
	}
	q, err := equationFromForm(r)
	if err != nil {
		fail(err)
		return
	}
	// The form is a thin wrapper over the one publish path the JSON
	// API uses (registry.go), so both enforce identical rules.
	if _, err := s.publishModel(q); err != nil {
		fail(err)
		return
	}
	http.Redirect(w, r, "/doc/"+q.Name, http.StatusSeeOther)
}

// equationFromForm builds an Equation from the model-definition form's
// fields.  Shared by the interactive page and the shard replication
// endpoint (internal/web/shard.go), which both accept the same POST.
func equationFromForm(r *http.Request) (*library.Equation, error) {
	params, err := parseParamLines(r.FormValue("params"))
	if err != nil {
		return nil, err
	}
	q := &library.Equation{
		Name:    strings.TrimSpace(r.FormValue("name")),
		Title:   strings.TrimSpace(r.FormValue("title")),
		Class:   strings.TrimSpace(r.FormValue("class")),
		Doc:     strings.TrimSpace(r.FormValue("doc")),
		Params:  params,
		Csw:     strings.TrimSpace(r.FormValue("csw")),
		Vswing:  strings.TrimSpace(r.FormValue("vswing")),
		Istatic: strings.TrimSpace(r.FormValue("istatic")),
		Area:    strings.TrimSpace(r.FormValue("area")),
		Delay:   strings.TrimSpace(r.FormValue("delay")),
		Freq:    strings.TrimSpace(r.FormValue("freq")),
	}
	if q.Name == "" {
		return nil, fmt.Errorf("the model needs a name")
	}
	return q, nil
}

// checkModelOverwrite enforces the overwrite rule: editing an existing
// user model is allowed, overwriting a built-in is not.
func (s *Server) checkModelOverwrite(name string) error {
	if existing, exists := s.registry.Lookup(name); exists {
		if _, isEquation := existing.(*library.Equation); !isEquation {
			return fmt.Errorf("%q is a built-in library element", name)
		}
	}
	return nil
}

// persistSiteModel compiles, sanity-evaluates, registers, and journals
// a site model.  Journal replay re-compiles and re-registers it before
// any design that prices through it.
func (s *Server) persistSiteModel(q *library.Equation) error {
	if err := q.Compile(); err != nil {
		return err
	}
	// The model must evaluate at its own defaults before being shared.
	if _, err := model.Evaluate(q, nil); err != nil {
		return fmt.Errorf("model does not evaluate at its defaults: %w", err)
	}
	if err := s.registry.Register(q); err != nil {
		return err
	}
	if err := s.commitSite(store.Record{Kind: store.KindModelPut, Model: q.Name}, q); err != nil {
		return fmt.Errorf("persisting model: %w", err)
	}
	return nil
}

// parseParamLines reads the textarea format: one parameter per line,
// "name default [min max] [int]".  Defaults accept engineering
// notation.
func parseParamLines(src string) ([]library.EquationParam, error) {
	var out []library.EquationParam
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("parameter line %d: want \"name default [min max] [int]\"", lineNo+1)
		}
		p := library.EquationParam{Name: fields[0]}
		rest := fields[1:]
		if rest[len(rest)-1] == "int" {
			p.Integer = true
			rest = rest[:len(rest)-1]
		}
		vals := make([]float64, len(rest))
		for i, f := range rest {
			v, err := units.Parse(f)
			if err != nil {
				return nil, fmt.Errorf("parameter line %d: %v", lineNo+1, err)
			}
			vals[i] = v
		}
		switch len(vals) {
		case 1:
			p.Default = vals[0]
		case 3:
			p.Default, p.Min, p.Max = vals[0], vals[1], vals[2]
		default:
			return nil, fmt.Errorf("parameter line %d: want default or default+min+max", lineNo+1)
		}
		out = append(out, p)
	}
	return out, nil
}

// ----- documentation pages -----

type docPage struct {
	base
	Name, CellTitle, Class, Doc string
	Params                      []docParam
	Notes                       []string
}

type docParam struct {
	Name, Default, Range, Doc string
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request, u *User) {
	name := r.PathValue("name")
	m, ok := s.registry.Lookup(name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	info := m.Info()
	page := docPage{
		base:      s.base("Documentation: " + name),
		Name:      name,
		CellTitle: info.Title,
		Class:     string(info.Class),
		Doc:       info.Doc,
	}
	for _, p := range info.Params {
		dp := docParam{Name: p.Name, Default: fmt.Sprintf("%g", p.Default), Doc: p.Doc}
		if p.Bounded() {
			dp.Range = fmt.Sprintf("[%g, %g]", p.Min, p.Max)
		}
		if len(p.Options) > 0 {
			var opts []string
			for _, o := range p.Options {
				opts = append(opts, fmt.Sprintf("%g=%s", o.Value, o.Label))
			}
			dp.Range = strings.Join(opts, "; ")
		}
		page.Params = append(page.Params, dp)
	}
	if est, err := model.Evaluate(m, nil); err == nil {
		page.Notes = est.Notes
	}
	s.render(w, "doc", page)
}

func (s *Server) handleHelp(w http.ResponseWriter, r *http.Request) {
	s.render(w, "help", s.base("Tutorial"))
}
