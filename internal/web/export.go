package web

import (
	"encoding/csv"
	"fmt"
	"net/http"
	"strings"

	"powerplay/internal/core/sheet"
	"powerplay/internal/units"
)

// Design import/export: sheets travel as the same JSON the server
// persists, so a design built at one site (or by the ppcli tool) drops
// into another user's account — the design re-use the paper's shared
// libraries enable.  CSV export feeds external spreadsheet tools, the
// 1996 equivalent of "download as Excel".

func (s *Server) handleDesignExport(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	u.mu.RLock()
	blob, err := d.MarshalJSON()
	u.mu.RUnlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", d.Name+".json"))
	_, _ = w.Write(blob)
}

func (s *Server) handleDesignImport(w http.ResponseWriter, r *http.Request, u *User) {
	blob := []byte(r.FormValue("design"))
	if len(blob) == 0 {
		http.Error(w, "powerplay: empty design payload", http.StatusBadRequest)
		return
	}
	d, err := sheet.ParseDesign(blob, s.registry)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if name := strings.TrimSpace(r.FormValue("name")); name != "" {
		d.Name = name
		d.Root.Name = name
	}
	if !validUserName(d.Name) {
		http.Error(w, fmt.Sprintf("powerplay: design name %q not addressable", d.Name), http.StatusBadRequest)
		return
	}
	tx := s.begin(u)
	installed := tx.install(d)
	perr := tx.commit()
	if !installed {
		http.Error(w, fmt.Sprintf("powerplay: design %q already exists", d.Name), http.StatusConflict)
		return
	}
	if perr != nil {
		http.Error(w, "persisting design: "+perr.Error(), http.StatusInternalServerError)
		return
	}
	http.Redirect(w, r, "/design/"+d.Name, http.StatusSeeOther)
}

func (s *Server) handleDesignCSV(w http.ResponseWriter, r *http.Request, u *User) {
	d, ok := s.design(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	// The records read the live tree (paths, models, bindings), so
	// they are built under the read lock and written after it.
	u.mu.RLock()
	res, err := s.evalDesign(u, d)
	if err != nil {
		u.mu.RUnlock()
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	records := [][]string{{"path", "model", "parameters", "energy_per_op_J", "power_W", "area_m2", "delay_s"}}
	var walk func(*sheet.Result)
	walk = func(rr *sheet.Result) {
		if rr.Node.Parent() != nil || rr.Node.Model != "" {
			var params []string
			for _, b := range rr.Node.Params {
				params = append(params, b.Name+"="+b.Expr.Source())
			}
			records = append(records, []string{
				rr.Node.Path(), rr.Node.Model, strings.Join(params, " "),
				units.Sci(float64(rr.EnergyPerOp), ""),
				units.Sci(float64(rr.Power), ""),
				units.Sci(float64(rr.Area), ""),
				units.Sci(float64(rr.Delay), ""),
			})
		}
		for _, c := range rr.Children {
			walk(c)
		}
	}
	walk(res)
	records = append(records, []string{"TOTAL", "", "",
		"", units.Sci(float64(res.Power), ""),
		units.Sci(float64(res.Area), ""), units.Sci(float64(res.Delay), "")})
	u.mu.RUnlock()
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", d.Name+".csv"))
	_ = csv.NewWriter(w).WriteAll(records)
}
