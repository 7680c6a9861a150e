package web

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"

	"powerplay/internal/core/sheet"
	"powerplay/internal/units"
)

// The design spreadsheet pages: Figures 2 and 5.

type sheetPage struct {
	base
	Name string
	Doc  string
	// Table is the sheet table's body — a row per design row, a row per
	// global variable, and the TOTAL row — pre-escaped by
	// appendSheetTable.
	Table template.HTML
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
		r = nil
	}
	// The build buffer does not escape, so it lives on the stack unless
	// the table outgrows it; the page's string is the one heap copy.
	page.Table = template.HTML(appendSheetTable(make([]byte, 0, 8<<10), d, r))
	return page
}

// appendSheetTable appends the sheet table's rows, from below the
// column headers through the TOTAL row, for the design and its result
// (nil when evaluation failed: the structural view, with no figures),
// and returns the extended buffer.  The bytes are exactly what the
// {{range}} blocks over the rows and globals wrote through
// html/template (sheetpage_test.go keeps those blocks as the oracle),
// without reflecting over every cell.
func appendSheetTable(dst []byte, d *sheet.Design, r *sheet.Result) []byte {
	var path [128]byte
	for i, c := range d.Root.Children {
		dst = appendSheetRows(dst, c, childResult(r, i), 0, path[:0])
	}
	dst = append(dst, '\n')
	var cell [32]byte
	for _, g := range d.Root.Globals {
		dst = append(dst, "\n<tr><td>"...)
		dst = appendHTMLText(dst, g.Name)
		dst = append(dst, "</td><td>variable</td>\n<td><input name=\"glob_"...)
		dst = appendHTMLText(dst, g.Name)
		dst = append(dst, "\" value=\""...)
		dst = appendHTMLText(dst, g.Expr.Source())
		dst = append(dst, "\" size=\"14\"></td>\n<td></td><td class=\"num\">"...)
		if v, ok := g.Expr.Const(); ok {
			dst = appendHTMLText(dst, strconv.AppendFloat(cell[:0], v, 'g', -1, 64))
		}
		dst = append(dst, "</td><td></td><td></td></tr>\n"...)
	}
	dst = append(dst, "\n<tr class=\"total\"><td>TOTAL</td><td></td><td></td><td></td>\n<td class=\"num\">"...)
	if r != nil {
		dst = appendHTMLText(dst, units.AppendSci(cell[:0], float64(r.Power), "W"))
	}
	dst = append(dst, "</td><td class=\"num\">"...)
	if r != nil {
		dst = appendHTMLText(dst, units.AppendArea(cell[:0], float64(r.Area)))
	}
	dst = append(dst, "</td>\n<td class=\"num\">"...)
	if r != nil {
		dst = appendHTMLText(dst, units.AppendFormat(cell[:0], float64(r.Delay), "s"))
	}
	return append(dst, "</td></tr>"...)
}

// appendSheetRows appends the row for n, indented by depth, and then
// its subtree's rows in order.  path is n's parent's path, the prefix
// of its parameters' form fields.
func appendSheetRows(dst []byte, n *sheet.Node, r *sheet.Result, depth int, path []byte) []byte {
	if len(path) > 0 {
		path = append(path, '/')
	}
	path = append(path, n.Name...)
	dst = append(dst, "\n<tr><td style=\"padding-left:"...)
	dst = strconv.AppendInt(dst, int64(depth), 10)
	dst = append(dst, "em\">"...)
	if n.Model != "" {
		dst = append(dst, "<a href=\"/cell/"...)
		dst = appendURLPath(dst, n.Model)
		dst = append(dst, "\">"...)
		dst = appendHTMLText(dst, n.Name)
		dst = append(dst, "</a></td>\n<td><a href=\"/doc/"...)
		dst = appendURLPath(dst, n.Model)
		dst = append(dst, "\">"...)
		dst = appendHTMLText(dst, n.Model)
		dst = append(dst, "</a></td>\n<td>"...)
	} else {
		dst = append(dst, "<b>"...)
		dst = appendHTMLText(dst, n.Name)
		dst = append(dst, "</b></td>\n<td></td>\n<td>"...)
	}
	for _, b := range n.Params {
		dst = appendHTMLText(dst, b.Name)
		dst = append(dst, "=<input name=\"row_"...)
		dst = appendHTMLText(dst, path)
		dst = append(dst, '|')
		dst = appendHTMLText(dst, b.Name)
		dst = append(dst, "\" value=\""...)
		dst = appendHTMLText(dst, b.Expr.Source())
		dst = append(dst, "\" size=\"9\"> "...)
	}
	dst = append(dst, "</td>\n<td class=\"num\">"...)
	var cell [32]byte
	if r != nil && r.Estimate != nil {
		dst = appendHTMLText(dst, units.AppendSci(cell[:0], float64(r.EnergyPerOp), "J"))
		for _, note := range r.Estimate.Notes {
			if strings.HasPrefix(note, staleNotePrefix) {
				dst = append(dst, " <span class=\"stale\" title=\""...)
				dst = appendHTMLText(dst, note)
				dst = append(dst, "\">(stale)</span>"...)
				break
			}
		}
	}
	dst = append(dst, "</td><td class=\"num\">"...)
	if r != nil {
		dst = appendHTMLText(dst, units.AppendSci(cell[:0], float64(r.Power), "W"))
	}
	dst = append(dst, "</td>\n<td class=\"num\">"...)
	if r != nil {
		dst = appendHTMLText(dst, units.AppendArea(cell[:0], float64(r.Area)))
	}
	dst = append(dst, "</td><td class=\"num\">"...)
	if r != nil {
		dst = appendHTMLText(dst, units.AppendFormat(cell[:0], float64(r.Delay), "s"))
	}
	dst = append(dst, "</td></tr>\n"...)
	for i, c := range n.Children {
		dst = appendSheetRows(dst, c, childResult(r, i), depth+1, path)
	}
	return dst
}

// childResult is r's i'th child result, or nil when r is nil or has no
// such child.
func childResult(r *sheet.Result, i int) *sheet.Result {
	if r == nil || i >= len(r.Children) {
		return nil
	}
	return r.Children[i]
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
	tx := s.begin(u)
	// Every edit goes through tx.apply: one that fails leaves the tree
	// untouched and journals nothing, and the ones that landed are
	// journaled even when a later one fails, because the tree keeps
	// them.
	var editErr error
	for key, vals := range r.PostForm {
		if len(vals) == 0 {
			continue
		}
		src := strings.TrimSpace(vals[0])
		var m sheet.Mutation
		if spec, ok := strings.CutPrefix(key, "row_"); ok {
			path, param, ok := strings.Cut(spec, "|")
			if !ok {
				continue
			}
			m = sheet.Mutation{Op: sheet.MutSetParam, Path: path, Name: param, Expr: src}
			if src == "" {
				m.Op = sheet.MutDeleteParam
			}
		} else if name, ok := strings.CutPrefix(key, "glob_"); ok {
			m = sheet.Mutation{Op: sheet.MutSetGlobal, Name: name, Expr: src}
			if src == "" {
				m.Op = sheet.MutDeleteGlobal
			}
		} else {
			continue
		}
		if err := tx.apply(d, m); err != nil {
			editErr = err
		}
	}
	// Play's contract is "recompute now": bump the generation even when
	// no cell changed, so the memoized result, the cached page and its
	// ETag all retire — a mounted remote model may price differently on
	// the recompute, and clients must not 304 across a Play.  Journaled
	// like any edit, so replayed generations match live ones.
	if err := tx.apply(d, sheet.Mutation{Op: sheet.MutTouch}); err != nil {
		editErr = err
	}
	res, evalErr := s.evalDesign(u, d)
	page := s.buildSheetPage(d, res, evalErr)
	perr := tx.commit()
	if editErr != nil && page.Error == "" {
		page.Error = editErr.Error()
	}
	if perr != nil && page.Error == "" {
		page.Error = "persisting design: " + perr.Error()
	}
	s.render(w, "sheet", page)
}

// handleDesignRows adds/removes rows and sets top-level variables.
func (s *Server) handleDesignRows(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	tx := s.begin(u)
	var err error
	switch r.FormValue("action") {
	case "Add":
		parentPath := strings.TrimSpace(r.FormValue("parent"))
		if parentPath != "" && d.Root.Find(parentPath) == nil {
			err = fmt.Errorf("no row %q", parentPath)
			break
		}
		err = tx.apply(d, sheet.Mutation{Op: sheet.MutAddRow, Path: parentPath,
			Name:  strings.TrimSpace(r.FormValue("row")),
			Model: strings.TrimSpace(r.FormValue("model"))})
	case "Remove":
		path := strings.TrimSpace(r.FormValue("row"))
		target := d.Root.Find(path)
		if target == nil || target.Parent() == nil {
			err = fmt.Errorf("no removable row %q", path)
			break
		}
		err = tx.apply(d, sheet.Mutation{Op: sheet.MutRemoveRow,
			Path: target.Parent().Path(), Name: target.Name})
	case "SetVar":
		err = tx.apply(d, sheet.Mutation{Op: sheet.MutSetGlobal,
			Name: strings.TrimSpace(r.FormValue("var")),
			Expr: strings.TrimSpace(r.FormValue("expr"))})
	default:
		err = fmt.Errorf("unknown action %q", r.FormValue("action"))
	}
	// Structural edits bump the generation themselves; a failed action
	// left the tree untouched, so the memo serves the still-valid
	// result either way.
	res, evalErr := s.evalDesign(u, d)
	page := s.buildSheetPage(d, res, evalErr)
	perr := tx.commit()
	if err != nil {
		page.Error = err.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "sheet", page)
		return
	}
	if perr != nil && page.Error == "" {
		page.Error = "persisting design: " + perr.Error()
	}
	s.render(w, "sheet", page)
}
