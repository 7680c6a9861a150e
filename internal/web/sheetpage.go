package web

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"powerplay/internal/core/sheet"
	"powerplay/internal/units"
)

// The design spreadsheet pages: Figures 2 and 5.

func (s *Server) design(u *User, name string) (*sheet.Design, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	d, ok := u.Designs[name]
	return d, ok
}

// sheetPageCap sizes a page buffer: the seeded sheets' pages run 4.5–10
// KB.
const sheetPageCap = 16 << 10

// sheetView is what the sheet page shows for an evaluation: its result,
// or, when evaluation failed, the structural view (no result) and the
// failure as the page's error line.
func sheetView(r *sheet.Result, err error) (*sheet.Result, string) {
	if err != nil {
		return nil, err.Error()
	}
	return r, ""
}

// appendSheetPage appends the whole sheet page for the design — head,
// frame, table and foot — with r's figures (nil: the structural view)
// and errMsg as its error line, and returns the extended buffer and the
// offset where the error line starts, for an error found after the page
// was laid out (see insertErrorLine).  The caller must hold the owning
// user's lock.
func (s *Server) appendSheetPage(dst []byte, d *sheet.Design, r *sheet.Result, errMsg string) ([]byte, int) {
	dst = appendPageHead(dst, s.cfg.SiteName, d.Name+" summary")
	dst = append(dst, "\n<p>"...)
	dst = appendHTMLText(dst, d.Doc)
	dst = append(dst, "</p>\n"...)
	errAt := len(dst)
	dst = appendErrorLine(dst, errMsg)
	dst = append(dst, "\n<form method=\"POST\" action=\"/design/"...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, `/play">
<table>
<tr><th>Name</th><th>Model</th><th>Parameters</th><th>Energy/op</th><th>Power</th><th>Area</th><th>Delay</th></tr>
`...)
	dst = appendSheetTable(dst, d, r)
	dst = append(dst, `
</table>
<input type="submit" value="PLAY">
</form>
<p><a href="/design/`...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, "/analysis\">Power/timing analysis</a> |\n<a href=\"/design/"...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, "/sweep\">Parameter sweep</a> |\n<a href=\"/design/"...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, "/export\">Export JSON</a> |\n<a href=\"/design/"...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, "/csv\">Export CSV</a></p>\n<h2>Edit rows</h2>\n<form method=\"POST\" action=\"/design/"...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, `/rows">
Add row: name <input name="row" size="12"> model <input name="model" size="18">
under <input name="parent" size="12" placeholder="(root)">
<input type="submit" name="action" value="Add">
</form>
<form method="POST" action="/design/`...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, `/rows">
Remove row: path <input name="row" size="18">
<input type="submit" name="action" value="Remove">
</form>
<form method="POST" action="/design/`...)
	dst = appendURLPath(dst, d.Name)
	dst = append(dst, `/rows">
Set variable: name <input name="var" size="10"> expr <input name="expr" size="14">
<input type="submit" name="action" value="SetVar">
</form>
`...)
	return append(dst, pageFoot...), errAt
}

// insertErrorLine puts msg's error line into a page laid out without
// one, at the offset appendSheetPage returned.
func insertErrorLine(page []byte, errAt int, msg string) []byte {
	return slices.Insert(page, errAt, appendErrorLine(nil, msg)...)
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
	serveRendered(w, r, s.renderedSheetFor(u, d))
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
	res, msg := sheetView(s.evalDesign(u, d))
	if editErr != nil && msg == "" {
		msg = editErr.Error()
	}
	page, errAt := s.appendSheetPage(pageBuf(), d, res, msg)
	if perr := tx.commit(); perr != nil && msg == "" {
		page = insertErrorLine(page, errAt, "persisting design: "+perr.Error())
	}
	writePage(w, http.StatusOK, page)
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
	res, msg := sheetView(s.evalDesign(u, d))
	status := http.StatusOK
	if err != nil {
		msg, status = err.Error(), http.StatusBadRequest
	}
	page, errAt := s.appendSheetPage(pageBuf(), d, res, msg)
	if perr := tx.commit(); perr != nil && msg == "" {
		page = insertErrorLine(page, errAt, "persisting design: "+perr.Error())
	}
	writePage(w, status, page)
}
