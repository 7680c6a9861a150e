package web

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/shard"
	"powerplay/internal/store"
	"powerplay/internal/units"
)

// base carries the fields every page shares.
type base struct {
	Site  string
	Title string
	Error string
}

func (s *Server) base(title string) base {
	return base{Site: s.cfg.SiteName, Title: title}
}

func (s *Server) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.ExecuteTemplate(w, name, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// pageBufs holds spare buffers for the appended pages.  Each page is
// written in one call and then dropped, so without them every Play
// would allocate and zero a fresh 16 KB buffer, and every 200-step
// sweep a 28 KB page.
var pageBufs = make(chan []byte, 4)

// maxPageBuf caps the buffers pageBufs keeps, so one huge sheet does
// not stay resident.
const maxPageBuf = 64 << 10

// pageBuf returns an empty buffer to append a page into; writePage
// hands it back.
func pageBuf() []byte {
	select {
	case b := <-pageBufs:
		return b
	default:
		return make([]byte, 0, sheetPageCap)
	}
}

// writePage sends an appended page with its length and status in one
// Write, so the response is never chunked, and then keeps the page's
// buffer for the next one: the caller must not touch page afterwards.
func writePage(w http.ResponseWriter, status int, page []byte) {
	h := w.Header()
	h.Set("Content-Type", "text/html; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(page)))
	w.WriteHeader(status)
	_, _ = w.Write(page)
	if cap(page) <= maxPageBuf {
		select {
		case pageBufs <- page[:0]:
		default:
		}
	}
}

// ----- login / menu -----

type loginPage struct {
	base
	NeedPassword bool
}

func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) {
	if s.currentUser(r) != nil {
		http.Redirect(w, r, "/menu", http.StatusSeeOther)
		return
	}
	s.render(w, "login", loginPage{base: s.base("User Identification"), NeedPassword: s.cfg.Password != ""})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	fail := func(msg string) {
		p := loginPage{base: s.base("User Identification"), NeedPassword: s.cfg.Password != ""}
		p.Error = msg
		w.WriteHeader(http.StatusForbidden)
		s.render(w, "login", p)
	}
	if s.cfg.Password != "" && r.FormValue("password") != s.cfg.Password {
		fail("wrong site password")
		return
	}
	name := r.FormValue("user")
	// On a sharded backend, a login for a user another shard owns is a
	// routing mistake, not a bad credential: answer the ShardRedirect
	// so the router re-routes to the owner.
	if s.ring != nil && validUserName(name) && !s.Owns(name) {
		s.shardRedirect(w, r, name)
		return
	}
	token, err := s.login(name)
	if err != nil {
		fail(err.Error())
		return
	}
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: token, Path: "/", HttpOnly: true})
	// The routing cookie: the bare user name, readable by the shard
	// router so it can route without session state.  Deliberately not
	// HttpOnly-sensitive — it holds nothing the user did not type.
	http.SetCookie(w, &http.Cookie{Name: shard.UserCookie, Value: name, Path: "/"})
	http.Redirect(w, r, "/menu", http.StatusSeeOther)
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	if c, err := r.Cookie(sessionCookie); err == nil {
		s.mu.Lock()
		delete(s.sessions, c.Value)
		s.mu.Unlock()
	}
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: "", Path: "/", MaxAge: -1})
	http.SetCookie(w, &http.Cookie{Name: shard.UserCookie, Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

type menuPage struct {
	base
	User        string
	DesignCount int
}

func (s *Server) handleMenu(w http.ResponseWriter, r *http.Request, u *User) {
	u.mu.RLock()
	n := len(u.Designs)
	u.mu.RUnlock()
	s.render(w, "menu", menuPage{base: s.base("Main Menu"), User: u.Name, DesignCount: n})
}

// ----- library -----

type libraryPage struct {
	base
	Groups []libraryGroup
}

type libraryGroup struct {
	Class string
	Cells []libraryCell
}

type libraryCell struct{ Name, Title string }

// titleCase upper-cases the first letter of an ASCII class name.
func titleCase(s string) string {
	if s == "" {
		return s
	}
	if c := s[0]; c >= 'a' && c <= 'z' {
		return string(c-'a'+'A') + s[1:]
	}
	return s
}

func (s *Server) handleLibrary(w http.ResponseWriter, r *http.Request, u *User) {
	page := libraryPage{base: s.base("Library Elements")}
	classes := []model.Class{
		model.Computation, model.Storage, model.Controller, model.Interconnect,
		model.Processor, model.Analog, model.Converter, model.Commodity, model.Macro,
	}
	for _, c := range classes {
		g := libraryGroup{Class: titleCase(string(c))}
		for _, name := range s.registry.ByClass(c) {
			m, _ := s.registry.Lookup(name)
			g.Cells = append(g.Cells, libraryCell{Name: name, Title: m.Info().Title})
		}
		if len(g.Cells) > 0 {
			page.Groups = append(page.Groups, g)
		}
	}
	s.render(w, "library", page)
}

// ----- cell form (Figure 4) -----

type cellPage struct {
	base
	Name   string
	Doc    string
	Params []cellParam
	Design string
	Row    string
	Result *cellResult
}

type cellParam struct {
	Name, Unit, Doc, Value string
	Options                []model.Option
}

type cellResult struct {
	Power, Energy, Cap, Area, Delay string
	Notes                           []string
}

func (s *Server) cellPage(u *User, name string) (*cellPage, model.Model, bool) {
	m, ok := s.registry.Lookup(name)
	if !ok {
		return nil, nil, false
	}
	info := m.Info()
	page := &cellPage{base: s.base(info.Title), Name: name, Doc: info.Doc, Design: "", Row: ""}
	u.mu.RLock()
	defaults := u.Defaults[name]
	u.mu.RUnlock()
	for _, p := range info.Params {
		v := p.Default
		if dv, ok := defaults[p.Name]; ok {
			v = dv
		}
		page.Params = append(page.Params, cellParam{
			Name: p.Name, Unit: p.Unit, Doc: p.Doc,
			// Engineering notation ("2M", "253f") round-trips through
			// units.Parse and avoids HTML-escaping surprises with "e+".
			Value:   units.Format(v, ""),
			Options: p.Options,
		})
	}
	return page, m, true
}

func (s *Server) handleCellForm(w http.ResponseWriter, r *http.Request, u *User) {
	page, _, ok := s.cellPage(u, r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.render(w, "cell", page)
}

// handleCellEval is the instant-feedback loop of Figure 4: parse the
// form, evaluate, remember the user's values as new defaults, and
// either display the result or save the configured element to a design.
func (s *Server) handleCellEval(w http.ResponseWriter, r *http.Request, u *User) {
	name := r.PathValue("name")
	page, m, ok := s.cellPage(u, name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	params := make(model.Params)
	srcs := make(map[string]string)
	var parseErr error
	for _, p := range m.Info().Params {
		raw := strings.TrimSpace(r.FormValue("p_" + p.Name))
		if raw == "" {
			continue
		}
		v, err := units.Parse(raw)
		if err != nil {
			parseErr = fmt.Errorf("parameter %s: %v", p.Name, err)
			break
		}
		params[p.Name] = v
		srcs[p.Name] = raw
	}
	// Refresh displayed values with what the user typed.
	for i := range page.Params {
		if src, ok := srcs[page.Params[i].Name]; ok {
			page.Params[i].Value = src
		}
	}
	if parseErr != nil {
		page.Error = parseErr.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "cell", page)
		return
	}
	est, err := model.Evaluate(m, params)
	if err != nil {
		page.Error = err.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "cell", page)
		return
	}
	// Update the user's defaults for this model, journaling the merge.
	tx := s.begin(u)
	if u.Defaults[name] == nil {
		u.Defaults[name] = make(map[string]float64)
	}
	for k, v := range params {
		u.Defaults[name][k] = v
	}
	tx.journal(store.Record{Kind: store.KindDefaults, Model: name, Values: params})
	if perr := tx.commit(); perr != nil {
		page.Error = "persisting defaults: " + perr.Error()
	}

	if r.FormValue("action") == "Add to design" {
		s.addCellToDesign(w, r, u, name, srcs, page)
		return
	}
	page.Result = &cellResult{
		Power:  est.Power().String(),
		Energy: est.EnergyPerOp().String(),
		Cap:    est.SwitchedCap().String(),
		Area:   est.Area.String(),
		Delay:  est.Delay.String(),
		Notes:  est.Notes,
	}
	s.render(w, "cell", page)
}

func (s *Server) addCellToDesign(w http.ResponseWriter, r *http.Request, u *User,
	modelName string, srcs map[string]string, page *cellPage) {
	designName := strings.TrimSpace(r.FormValue("design"))
	rowName := strings.TrimSpace(r.FormValue("row"))
	page.Design, page.Row = designName, rowName
	tx := s.begin(u)
	d, ok := u.Designs[designName]
	if !ok && designName != "" {
		// Create on first save, like the original tool.  The blank
		// design journals whole; the row and parameters below journal
		// as mutations on top of it.
		d = blankDesign(designName, s.registry)
		ok = tx.install(d)
	}
	var addErr error
	if !ok {
		addErr = fmt.Errorf("no design named %q", designName)
	} else {
		addErr = tx.apply(d, sheet.Mutation{Op: sheet.MutAddRow, Name: rowName, Model: modelName})
		for _, p := range page.Params {
			if addErr != nil {
				break
			}
			if src, has := srcs[p.Name]; has {
				addErr = tx.apply(d, sheet.Mutation{Op: sheet.MutSetParam, Path: rowName, Name: p.Name, Expr: src})
			}
		}
	}
	perr := tx.commit()
	if addErr != nil {
		page.Error = addErr.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "cell", page)
		return
	}
	if perr != nil {
		page.Error = "persisting design: " + perr.Error()
		s.render(w, "cell", page)
		return
	}
	http.Redirect(w, r, "/design/"+designName, http.StatusSeeOther)
}

// ----- designs -----

type designsPage struct {
	base
	Designs []designEntry
}

type designEntry struct {
	Name string
	Rows int
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request, u *User) {
	page := designsPage{base: s.base("Design Spreadsheets")}
	u.mu.RLock()
	for name, d := range u.Designs {
		rows := 0
		d.Root.Walk(func(*sheet.Node) { rows++ })
		page.Designs = append(page.Designs, designEntry{Name: name, Rows: rows - 1})
	}
	u.mu.RUnlock()
	sort.Slice(page.Designs, func(i, j int) bool { return page.Designs[i].Name < page.Designs[j].Name })
	s.render(w, "designs", page)
}

func (s *Server) handleDesignCreate(w http.ResponseWriter, r *http.Request, u *User) {
	name := strings.TrimSpace(r.FormValue("name"))
	var err, perr error
	if !validUserName(name) {
		err = fmt.Errorf("invalid design name %q", name)
	} else {
		tx := s.begin(u)
		if !tx.install(blankDesign(name, s.registry)) {
			err = fmt.Errorf("design %q already exists", name)
		}
		perr = tx.commit()
	}
	if err != nil {
		page := designsPage{base: s.base("Design Spreadsheets")}
		page.Error = err.Error()
		w.WriteHeader(http.StatusBadRequest)
		s.render(w, "designs", page)
		return
	}
	if perr != nil {
		http.Error(w, "persisting design: "+perr.Error(), http.StatusInternalServerError)
		return
	}
	http.Redirect(w, r, "/design/"+name, http.StatusSeeOther)
}

// blankDesign is a new sheet with the stock supply and clock (1.5 V,
// 1 MHz) that the design form and a first cell save both start from.
func blankDesign(name string, reg *model.Registry) *sheet.Design {
	d := sheet.NewDesign(name, reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1MHz")
	return d
}

// handleDesignDelete removes a design from the account — journaled,
// so the deletion survives a crash like any other mutation.
func (s *Server) handleDesignDelete(w http.ResponseWriter, r *http.Request, u *User) {
	name := strings.TrimSpace(r.FormValue("name"))
	tx := s.begin(u)
	_, ok := u.Designs[name]
	if ok {
		delete(u.Designs, name)
		// Deletion is the only way a design leaves an account, so the
		// read memo keeps one entry per resident design (pagecache.go).
		u.memoMu.Lock()
		delete(u.memo, name)
		u.memoMu.Unlock()
		tx.journal(store.Record{Kind: store.KindDesignDelete, Design: name})
	}
	perr := tx.commit()
	if !ok {
		http.NotFound(w, r)
		return
	}
	if perr != nil {
		http.Error(w, "persisting deletion: "+perr.Error(), http.StatusInternalServerError)
		return
	}
	http.Redirect(w, r, "/designs", http.StatusSeeOther)
}
