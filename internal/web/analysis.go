package web

import (
	"fmt"
	"net/http"

	"powerplay/internal/core/sheet"
	"powerplay/internal/units"
)

// The analysis page: the Figure 5 reading of a sheet — ranked
// consumers, the point of diminishing returns, and a timing check at
// the sheet's clock — one hyperlink away from the spreadsheet.

type analysisPage struct {
	base
	Name       string
	Total      string
	Consumers  []analysisRow
	TopPaths   string
	Coverage   string
	Timing     []timingRow
	ClockLabel string
	MaxFreq    string
}

type analysisRow struct {
	Path, Power string
	SharePct    string
}

type timingRow struct {
	Path, Delay, MaxFreq, Slack string
	Meets                       bool
}

func (s *Server) handleDesignAnalysis(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	page := analysisPage{base: s.base(d.Name + " analysis"), Name: d.Name}
	// Evaluate through the read-path memo under the read lock, as the
	// sheet page does, so an analysis after a sheet view or a Play
	// reuses that evaluation.  The digests read Result.Node paths of
	// the live tree, so the page is built before the unlock and
	// rendered after it.
	u.mu.RLock()
	res, err := s.evalDesign(u, d)
	if err != nil {
		u.mu.RUnlock()
		page.Error = err.Error()
		w.WriteHeader(http.StatusUnprocessableEntity)
		s.render(w, "analysis", page)
		return
	}
	var fClock float64
	if g := d.Root.Global("f"); g != nil {
		if v, ok := g.Const(); ok {
			fClock = v
		}
	}
	page.Total = units.Watts(res.Power).String()
	for _, row := range sheet.Advice(res) {
		page.Consumers = append(page.Consumers, analysisRow{
			Path:     row.Path,
			Power:    row.Power.String(),
			SharePct: fmt.Sprintf("%.1f%%", 100*row.Share),
		})
	}
	top := sheet.DiminishingReturns(res, 0.8)
	var covered float64
	for i, row := range top {
		if i > 0 {
			page.TopPaths += ", "
		}
		page.TopPaths += row.Path
		covered += row.Share
	}
	page.Coverage = fmt.Sprintf("%.0f%%", 100*covered)
	page.MaxFreq = sheet.MaxFrequency(res).String()
	if fClock > 0 {
		page.ClockLabel = units.Hertz(fClock).String()
		rows, err := sheet.TimingReport(res, units.Hertz(fClock))
		if err == nil {
			for _, tr := range rows {
				page.Timing = append(page.Timing, timingRow{
					Path:    tr.Path,
					Delay:   tr.Delay.String(),
					MaxFreq: tr.MaxFreq.String(),
					Slack:   units.Seconds(tr.SlackSeconds).String(),
					Meets:   tr.Meets,
				})
			}
		}
	}
	u.mu.RUnlock()
	s.render(w, "analysis", page)
}
