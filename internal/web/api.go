package web

import (
	"encoding/json"
	"net/http"

	"powerplay/internal/core/model"
	"powerplay/internal/library"
)

// The remote model protocol (Figures 6-7 of the paper): instead of
// Silva's SMTP hubs, secure scripts at URLs handle information transfer
// on demand.  A PowerPlay site serves its model namespace as JSON; a
// remote site mounts it (see remote.go) so a library characterized at
// one institution prices designs at another.

// ModelSummary is one row of the model list.
type ModelSummary struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	Class string `json:"class"`
}

// ModelInfoJSON is the full descriptor of one model.
type ModelInfoJSON struct {
	Name   string      `json:"name"`
	Title  string      `json:"title"`
	Class  string      `json:"class"`
	Doc    string      `json:"doc"`
	Params []ParamJSON `json:"params"`
}

// ParamJSON mirrors model.Param.
type ParamJSON struct {
	Name    string       `json:"name"`
	Doc     string       `json:"doc,omitempty"`
	Unit    string       `json:"unit,omitempty"`
	Default float64      `json:"default"`
	Min     float64      `json:"min,omitempty"`
	Max     float64      `json:"max,omitempty"`
	Integer bool         `json:"integer,omitempty"`
	Options []OptionJSON `json:"options,omitempty"`
}

// OptionJSON mirrors model.Option.
type OptionJSON struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

// EvalRequest asks for one model evaluation.
type EvalRequest struct {
	Model  string             `json:"model"`
	Params map[string]float64 `json:"params,omitempty"`
}

// EstimateJSON carries a full EQ 1 estimate across the network, so the
// mounting site reconstructs contributions rather than a bare number.
type EstimateJSON struct {
	VDD     float64    `json:"vdd"`
	Dynamic []TermJSON `json:"dynamic,omitempty"`
	Static  []CurJSON  `json:"static,omitempty"`
	Area    float64    `json:"area"`
	Delay   float64    `json:"delay"`
	Notes   []string   `json:"notes,omitempty"`
	// Convenience summaries.
	Power       float64 `json:"power"`
	EnergyPerOp float64 `json:"energyPerOp"`
}

// TermJSON is one dynamic contribution.
type TermJSON struct {
	Label  string  `json:"label"`
	Csw    float64 `json:"csw"`
	Vswing float64 `json:"vswing,omitempty"`
	Freq   float64 `json:"freq"`
}

// CurJSON is one static term.
type CurJSON struct {
	Label string  `json:"label"`
	I     float64 `json:"i"`
}

func infoJSON(info model.Info) ModelInfoJSON {
	out := ModelInfoJSON{
		Name: info.Name, Title: info.Title, Class: string(info.Class), Doc: info.Doc,
	}
	for _, p := range info.Params {
		pj := ParamJSON{
			Name: p.Name, Doc: p.Doc, Unit: p.Unit,
			Default: p.Default, Min: p.Min, Max: p.Max, Integer: p.Integer,
		}
		for _, o := range p.Options {
			pj.Options = append(pj.Options, OptionJSON{Label: o.Label, Value: o.Value})
		}
		out.Params = append(out.Params, pj)
	}
	return out
}

func estimateJSON(est *model.Estimate) EstimateJSON {
	out := EstimateJSON{
		VDD:         float64(est.VDD),
		Area:        float64(est.Area),
		Delay:       float64(est.Delay),
		Notes:       est.Notes,
		Power:       float64(est.Power()),
		EnergyPerOp: float64(est.EnergyPerOp()),
	}
	for _, c := range est.Dynamic {
		out.Dynamic = append(out.Dynamic, TermJSON{
			Label: c.Label, Csw: float64(c.Csw),
			Vswing: float64(c.Vswing), Freq: float64(c.Freq),
		})
	}
	for _, st := range est.Static {
		out.Static = append(out.Static, CurJSON{Label: st.Label, I: float64(st.I)})
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiModels lists the library, honoring the shared listing parameters
// (?prefix=, ?cursor=, ?limit= — see paginate).  The body stays the
// bare sorted array the pre-pagination clients read; a truncated page
// advertises its continuation in the Link: rel="next" header, so old
// consumers that never send ?limit= still get everything.
func (s *Server) apiModels(w http.ResponseWriter, r *http.Request) {
	page, next, err := paginate(r, s.registry.Names())
	if err != nil {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	out := []ModelSummary{}
	for _, name := range page {
		m, ok := s.registry.Lookup(name)
		if !ok {
			continue
		}
		info := m.Info()
		out = append(out, ModelSummary{Name: name, Title: info.Title, Class: string(info.Class)})
	}
	linkNext(w, r, next)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) apiModelInfo(w http.ResponseWriter, r *http.Request) {
	m, ok := s.registry.Lookup(r.PathValue("name"))
	if !ok {
		apiFail(w, r, http.StatusNotFound, codeNotFound, "no such model")
		return
	}
	writeJSON(w, http.StatusOK, infoJSON(m.Info()))
}

func (s *Server) apiEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest, "bad request: "+err.Error())
		return
	}
	params := make(model.Params, len(req.Params))
	for k, v := range req.Params {
		params[k] = v
	}
	est, err := s.registry.Evaluate(req.Model, params)
	if err != nil {
		apiFail(w, r, http.StatusUnprocessableEntity, codeInvalidParams, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, estimateJSON(est))
}

// apiEquations exports the site's user-defined models as the JSON the
// library package reads back: whole-library sharing in one fetch.
func (s *Server) apiEquations(w http.ResponseWriter, r *http.Request) {
	blob, err := library.DumpEquations(s.registry)
	if err != nil {
		apiFail(w, r, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(blob)
}
