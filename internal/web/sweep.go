package web

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"powerplay/internal/core/explore"
	"powerplay/internal/core/sheet"
	"powerplay/internal/obs"
	"powerplay/internal/units"
)

// The exploration page: "the study of the impact of parameter
// variations (such as supply voltage and clock frequency)" as a form —
// pick a variable and a range, get the swept table with the Pareto-
// optimal rows marked.
//
// Evaluation runs through the exploration engine on the live design
// under the user's read lock, so a sweep of an unchanged sheet reuses
// the design's cached plan and hoisted baseline.  The request context
// bounds the run: closing the browser tab cancels the sweep mid-flight,
// and sweepTimeout caps how long a pathological range may hold the
// lock and the request's goroutine.

// defaultSweepTimeout bounds one sweep request when Config.SweepTimeout
// is unset.  The UI caps ranges at 200 steps and a step evaluates in
// microseconds, so a healthy sweep ends ~6 orders of magnitude sooner;
// hitting this means a remote model is stalling, and the user gets told
// instead of a hung page.
const defaultSweepTimeout = 30 * time.Second

// sweepTimeout resolves the configured per-request sweep budget.
func (s *Server) sweepTimeout() time.Duration {
	if t := s.cfg.SweepTimeout; t > 0 {
		return t
	}
	return defaultSweepTimeout
}

type sweepPage struct {
	base
	Name     string
	Var      string
	From, To string
	Steps    string
}

func (s *Server) handleDesignSweep(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	page := sweepPage{
		base:  s.base(d.Name + " exploration"),
		Name:  d.Name,
		Var:   strings.TrimSpace(r.FormValue("var")),
		From:  strings.TrimSpace(r.FormValue("from")),
		To:    strings.TrimSpace(r.FormValue("to")),
		Steps: strings.TrimSpace(r.FormValue("steps")),
	}
	// Defaults: a supply sweep.
	if page.Var == "" {
		page.Var, page.From, page.To, page.Steps = "vdd", "1.0", "3.3", "8"
	}
	fail := func(status int, msg string) {
		page.Error = msg
		writePage(w, status, appendSweepPage(pageBuf(), &page, nil, explore.Columns{}, nil))
	}
	from, err := units.Parse(page.From)
	if err != nil {
		fail(http.StatusBadRequest, "from: "+err.Error())
		return
	}
	to, err := units.Parse(page.To)
	if err != nil {
		fail(http.StatusBadRequest, "to: "+err.Error())
		return
	}
	steps, err := strconv.Atoi(page.Steps)
	if err != nil || steps < 2 || steps > 200 {
		fail(http.StatusBadRequest, "steps must be an integer in [2, 200]")
		return
	}
	// The sweep reads the live tree, so the user's read lock is held
	// from the variable check to the last point; the result columns
	// hold no tree references, so the Pareto pass and the render run
	// unlocked.
	u.mu.RLock()
	// The variable must exist somewhere in the sheet (overriding an
	// unknown name would sweep nothing and silently plot a flat line).
	known := false
	d.Root.Walk(func(n *sheet.Node) {
		if n.Global(page.Var) != nil {
			known = true
		}
	})
	if !known {
		u.mu.RUnlock()
		fail(http.StatusBadRequest, fmt.Sprintf("no variable %q in this design", page.Var))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.sweepTimeout())
	defer cancel()
	start := time.Now()
	values := explore.Linspace(from, to, steps)
	cols, err := explore.SweepColumns(ctx, d, page.Var, values)
	u.mu.RUnlock()
	obs.Log(ctx).Debug("sweep finished",
		"design", d.Name, "var", page.Var, "steps", steps,
		"dur_ms", time.Since(start).Milliseconds(), "err", err != nil)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// The client went away; nobody is left to render for.
			return
		case errors.Is(err, context.DeadlineExceeded):
			fail(http.StatusServiceUnavailable,
				fmt.Sprintf("sweep timed out after %s — a model is stalling; try fewer steps", s.sweepTimeout()))
		default:
			// An evaluation failure names the offending point and row;
			// surface it instead of an empty table.
			fail(http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	writePage(w, http.StatusOK, appendSweepPage(pageBuf(), &page, values, cols, explore.Front(cols.Power, cols.Delay)))
}

// appendSweepPage appends the whole sweep page — head, the error line,
// the form echoing the request's fields, the swept table when there are
// values, and foot — and returns the extended buffer.
func appendSweepPage(dst []byte, page *sweepPage, values []float64, cols explore.Columns, front []bool) []byte {
	dst = appendPageHead(dst, page.Site, page.Title)
	dst = append(dst, '\n')
	dst = appendErrorLine(dst, page.Error)
	dst = append(dst, "\n<form method=\"GET\" action=\"/design/"...)
	dst = appendURLPath(dst, page.Name)
	dst = append(dst, "/sweep\">\nVariable <input name=\"var\" value=\""...)
	dst = appendHTMLText(dst, page.Var)
	dst = append(dst, "\" size=\"8\">\nfrom <input name=\"from\" value=\""...)
	dst = appendHTMLText(dst, page.From)
	dst = append(dst, "\" size=\"8\">\nto <input name=\"to\" value=\""...)
	dst = appendHTMLText(dst, page.To)
	dst = append(dst, "\" size=\"8\">\nsteps <input name=\"steps\" value=\""...)
	dst = appendHTMLText(dst, page.Steps)
	dst = append(dst, "\" size=\"4\">\n<input type=\"submit\" value=\"Sweep\">\n</form>\n"...)
	if len(values) > 0 {
		dst = append(dst, "\n<table>\n<tr><th>"...)
		dst = appendHTMLText(dst, page.Var)
		dst = append(dst, "</th><th>Power</th><th>Area</th><th>Delay</th><th>Pareto</th></tr>\n"...)
		dst = appendSweepRows(dst, values, cols, front)
		dst = append(dst, "\n</table>\n<p class=\"note\">Rows marked * are power/delay non-dominated.</p>\n"...)
	}
	dst = append(dst, "\n<p><a href=\"/design/"...)
	dst = appendURLPath(dst, page.Name)
	dst = append(dst, "\">Back to the spreadsheet</a></p>\n"...)
	return append(dst, pageFoot...)
}

// appendSweepRows appends one table row per swept value — the value,
// its power, area and delay from the result columns, and a * on the
// power/delay front — and returns the extended buffer.  The bytes are exactly what a {{range}} block
// over the cells writes through html/template (sweep_test.go keeps that
// block as the oracle), without reflecting over 200 × 5 cells.
func appendSweepRows(dst []byte, values []float64, cols explore.Columns, front []bool) []byte {
	var cell [32]byte
	for i, v := range values {
		dst = append(dst, "\n<tr><td class=\"num\">"...)
		dst = appendHTMLText(dst, strconv.AppendFloat(cell[:0], v, 'g', 4, 64))
		dst = append(dst, "</td><td class=\"num\">"...)
		dst = appendHTMLText(dst, units.AppendFormat(cell[:0], cols.Power[i], "W"))
		dst = append(dst, "</td>\n<td class=\"num\">"...)
		dst = appendHTMLText(dst, units.AppendArea(cell[:0], cols.Area[i]))
		dst = append(dst, "</td><td class=\"num\">"...)
		dst = appendHTMLText(dst, units.AppendFormat(cell[:0], cols.Delay[i], "s"))
		dst = append(dst, "</td>\n<td>"...)
		if front[i] {
			dst = append(dst, '*')
		}
		dst = append(dst, "</td></tr>\n"...)
	}
	return dst
}
