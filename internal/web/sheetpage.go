package web

import (
	"fmt"
	"net/http"
	"strings"

	"powerplay/internal/core/sheet"
	"powerplay/internal/store"
	"powerplay/internal/units"
)

// The design spreadsheet pages: Figures 2 and 5.

type sheetPage struct {
	base
	Name       string
	Doc        string
	Rows       []sheetRow
	Globals    []sheetGlobal
	TotalPower string
	TotalArea  string
	TotalDelay string
}

type sheetRow struct {
	Name, Model string
	Indent      int
	Params      []sheetParam
	Energy      string
	Power       string
	Area        string
	Delay       string
	// Stale carries a degraded-mode note when this row's estimate was
	// served from the remote client's last-known-good cache because
	// the publishing site is unavailable.
	Stale string
}

type sheetParam struct {
	Name  string
	Field string // form field suffix: path|param
	Src   string
}

type sheetGlobal struct {
	Name, Src, Value string
}

func (s *Server) design(u *User, name string) (*sheet.Design, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	d, ok := u.Designs[name]
	return d, ok
}

// buildSheetPage lays out the design with results (if evaluation
// succeeded) or with the structural view plus the error.  The caller
// supplies the evaluation — usually from the read-path memo — and must
// hold the owning user's lock.
func (s *Server) buildSheetPage(d *sheet.Design, r *sheet.Result, err error) sheetPage {
	page := sheetPage{base: s.base(d.Name + " summary"), Name: d.Name, Doc: d.Doc}
	if err != nil {
		page.Error = err.Error()
	}
	var walk func(n *sheet.Node, res *sheet.Result, depth int)
	walk = func(n *sheet.Node, res *sheet.Result, depth int) {
		if depth > 0 {
			row := sheetRow{Name: n.Name, Model: n.Model, Indent: depth - 1}
			for _, b := range n.Params {
				row.Params = append(row.Params, sheetParam{
					Name:  b.Name,
					Field: n.Path() + "|" + b.Name,
					Src:   b.Expr.Source(),
				})
			}
			if res != nil {
				if res.Estimate != nil {
					row.Energy = units.Sci(float64(res.EnergyPerOp), "J")
					for _, note := range res.Estimate.Notes {
						if strings.HasPrefix(note, staleNotePrefix) {
							row.Stale = note
							break
						}
					}
				}
				row.Power = units.Sci(float64(res.Power), "W")
				row.Area = res.Area.String()
				row.Delay = res.Delay.String()
			}
			page.Rows = append(page.Rows, row)
		}
		for i, c := range n.Children {
			var cr *sheet.Result
			if res != nil && i < len(res.Children) {
				cr = res.Children[i]
			}
			walk(c, cr, depth+1)
		}
	}
	var rootRes *sheet.Result
	if err == nil {
		rootRes = r
	}
	walk(d.Root, rootRes, 0)
	for _, g := range d.Root.Globals {
		sg := sheetGlobal{Name: g.Name, Src: g.Expr.Source()}
		if v, ok := g.Expr.Const(); ok {
			sg.Value = fmt.Sprintf("%g", v)
		}
		page.Globals = append(page.Globals, sg)
	}
	if err == nil {
		page.TotalPower = units.Sci(float64(r.Power), "W")
		page.TotalArea = r.Area.String()
		page.TotalDelay = r.Delay.String()
	}
	return page
}

func (s *Server) handleDesignSheet(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	rp, err := s.renderedSheetFor(u, d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	serveRendered(w, r, rp)
}

// handleDesignPlay is the PLAY button: absorb every edited cell, then
// recompute the hierarchy.
func (s *Server) handleDesignPlay(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u.mu.Lock()
	var editErr error
	var recs []store.Record
	// apply runs one edit through the journaled-mutation path: the
	// record is built right after the successful ApplyMutation, so its
	// Gen is the generation this edit produced.  Edits that fail leave
	// the tree untouched and journal nothing; edits that succeed are
	// journaled even when a later edit fails, because the in-memory
	// tree keeps them.
	apply := func(m sheet.Mutation) {
		if err := d.ApplyMutation(m); err != nil {
			editErr = err
			return
		}
		recs = append(recs, mutRecord(d, m))
	}
	for key, vals := range r.PostForm {
		if len(vals) == 0 {
			continue
		}
		src := strings.TrimSpace(vals[0])
		switch {
		case strings.HasPrefix(key, "row_"):
			spec := strings.TrimPrefix(key, "row_")
			path, param, ok := strings.Cut(spec, "|")
			if !ok {
				continue
			}
			if src == "" {
				apply(sheet.Mutation{Op: sheet.MutDeleteParam, Path: path, Name: param})
				continue
			}
			apply(sheet.Mutation{Op: sheet.MutSetParam, Path: path, Name: param, Expr: src})
		case strings.HasPrefix(key, "glob_"):
			name := strings.TrimPrefix(key, "glob_")
			if src == "" {
				apply(sheet.Mutation{Op: sheet.MutDeleteGlobal, Name: name})
				continue
			}
			apply(sheet.Mutation{Op: sheet.MutSetGlobal, Name: name, Expr: src})
		}
	}
	// Play's contract is "recompute now": bump the generation even when
	// no cell changed, so the memoized result, the cached page and its
	// ETag all retire — a mounted remote model may price differently on
	// the recompute, and clients must not 304 across a Play.  Journaled
	// like any edit, so replayed generations match live ones.
	apply(sheet.Mutation{Op: sheet.MutTouch})
	res, evalErr := s.evalDesign(u.Name, d)
	page := s.buildSheetPage(d, res, evalErr)
	lag, perr := s.appendUser(u.Name, recs...)
	u.mu.Unlock()
	if editErr != nil && page.Error == "" {
		page.Error = editErr.Error()
	}
	if perr != nil && page.Error == "" {
		page.Error = "persisting design: " + perr.Error()
	}
	s.maybeSnapshotUser(u, lag)
	s.render(w, "sheet", page)
}

// handleDesignRows adds/removes rows and sets top-level variables.
func (s *Server) handleDesignRows(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	u.mu.Lock()
	var err error
	var recs []store.Record
	// apply journals the structural edit iff it landed (see Play).
	apply := func(m sheet.Mutation) {
		if err = d.ApplyMutation(m); err == nil {
			recs = append(recs, mutRecord(d, m))
		}
	}
	switch r.FormValue("action") {
	case "Add":
		parentPath := strings.TrimSpace(r.FormValue("parent"))
		if parentPath != "" && d.Root.Find(parentPath) == nil {
			err = fmt.Errorf("no row %q", parentPath)
			break
		}
		apply(sheet.Mutation{Op: sheet.MutAddRow, Path: parentPath,
			Name:  strings.TrimSpace(r.FormValue("row")),
			Model: strings.TrimSpace(r.FormValue("model"))})
	case "Remove":
		path := strings.TrimSpace(r.FormValue("row"))
		target := d.Root.Find(path)
		if target == nil || target.Parent() == nil {
			err = fmt.Errorf("no removable row %q", path)
			break
		}
		apply(sheet.Mutation{Op: sheet.MutRemoveRow,
			Path: target.Parent().Path(), Name: target.Name})
	case "SetVar":
		apply(sheet.Mutation{Op: sheet.MutSetGlobal,
			Name: strings.TrimSpace(r.FormValue("var")),
			Expr: strings.TrimSpace(r.FormValue("expr"))})
	default:
		err = fmt.Errorf("unknown action %q", r.FormValue("action"))
	}
	// Structural edits bump the generation themselves; a failed action
	// left the tree untouched, so the memo serves the still-valid
	// result either way.
	res, evalErr := s.evalDesign(u.Name, d)
	page := s.buildSheetPage(d, res, evalErr)
	lag, perr := s.appendUser(u.Name, recs...)
	u.mu.Unlock()
	if err != nil {
		page.Error = err.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "sheet", page)
		return
	}
	if perr != nil && page.Error == "" {
		page.Error = "persisting design: " + perr.Error()
	}
	s.maybeSnapshotUser(u, lag)
	s.render(w, "sheet", page)
}
