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
// Evaluation runs through the parallel exploration engine on a clone
// of the design, so a long sweep never blocks (or races with) sheet
// edits, and through a per-design point cache, so refreshing the page
// or narrowing the range re-uses every point already priced.  The
// request context bounds the run: closing the browser tab cancels the
// sweep mid-flight, and sweepTimeout caps how long a pathological
// range may hold a worker pool.

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
	Rows     []sweepRow
}

type sweepRow struct {
	Value  string
	Power  string
	Area   string
	Delay  string
	Pareto bool
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
		w.WriteHeader(status)
		s.render(w, "sweep", page)
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
	// Snapshot under the user's read lock: the sweep itself runs on the
	// clone, so concurrent sheet edits neither block behind it nor race
	// it — and other users' traffic never waits at all.
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
	snap := d.Clone()
	cache := s.sweepCacheFor(u.Name, d)
	u.mu.RUnlock()

	ctx, cancel := context.WithTimeout(r.Context(), s.sweepTimeout())
	defer cancel()
	start := time.Now()
	runner := &explore.Runner{Cache: cache}
	pts, err := runner.Sweep(ctx, snap, page.Var, explore.Linspace(from, to, steps))
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
	front := explore.Pareto(pts)
	onFront := make(map[float64]bool, len(front))
	for _, p := range front {
		onFront[p.Vars[page.Var]] = true
	}
	for _, p := range pts {
		page.Rows = append(page.Rows, sweepRow{
			Value:  fmt.Sprintf("%.4g", p.Vars[page.Var]),
			Power:  units.Watts(p.Power).String(),
			Area:   units.SquareMeters(p.Area).String(),
			Delay:  units.Seconds(p.Delay).String(),
			Pareto: onFront[p.Vars[page.Var]],
		})
	}
	s.render(w, "sweep", page)
}
