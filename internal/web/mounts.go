package web

// Mount management over the JSON API, plus the pagination helpers the
// listing endpoints share.  A "mount" is either of the two ways this
// site uses another site's library:
//
//   - mirror (the default): a repository subscription — models are
//     copied through the registry protocol, evaluate locally, and
//     survive the publisher's death (federation.go);
//   - proxy: the PR 3 live mount — schemas are local, every
//     evaluation is a remote call (remote.go).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"powerplay/internal/store"
)

// ----- pagination -----

// maxPageLimit caps ?limit=: a consumer may page as slowly as it
// likes, but one response stays bounded.
const maxPageLimit = 1000

// paginate applies the shared listing parameters — ?prefix= (name
// filter), ?cursor= (resume strictly after this name) and ?limit=
// (page size; absent or 0 means everything) — to a sorted name list.
// It returns the page and the cursor for the next one ("" when this
// page is the last).
func paginate(r *http.Request, names []string) (page []string, next string, err error) {
	q := r.URL.Query()
	if prefix := q.Get("prefix"); prefix != "" {
		kept := names[:0:0]
		for _, n := range names {
			if strings.HasPrefix(n, prefix) {
				kept = append(kept, n)
			}
		}
		names = kept
	}
	if cursor := q.Get("cursor"); cursor != "" {
		i := sort.SearchStrings(names, cursor)
		if i < len(names) && names[i] == cursor {
			i++
		}
		names = names[i:]
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return nil, "", fmt.Errorf("limit must be a non-negative integer, got %q", raw)
		}
	}
	if limit == 0 || limit > maxPageLimit {
		limit = maxPageLimit
	}
	if len(names) > limit {
		return names[:limit], names[limit-1], nil
	}
	return names, "", nil
}

// linkNext advertises the next page as an RFC 8288 Link header,
// preserving the request's limit and prefix so a client can follow
// rel="next" blindly.
func linkNext(w http.ResponseWriter, r *http.Request, next string) {
	if next == "" {
		return
	}
	q := url.Values{}
	for _, k := range []string{"limit", "prefix"} {
		if v := r.URL.Query().Get(k); v != "" {
			q.Set(k, v)
		}
	}
	q.Set("cursor", next)
	w.Header().Add("Link", "<"+r.URL.Path+"?"+q.Encode()+`>; rel="next"`)
}

// decodeJSONBody decodes one JSON value from the request body,
// rejecting unknown fields and trailing garbage: API requests are
// machine-written, so silent field typos help nobody.
func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data after the JSON value")
	}
	return nil
}

// ----- the mounts endpoints -----

// Mount modes.
const (
	mountModeMirror = "mirror"
	mountModeProxy  = "proxy"
)

// mountRequest is the POST /api/v1/mounts body.
type mountRequest struct {
	URL    string `json:"url"`
	Prefix string `json:"prefix"`
	// Mode selects mirror (default) or proxy semantics.
	Mode string `json:"mode,omitempty"`
	// Filter narrows a mirror subscription to publisher names with
	// this prefix (ignored for proxy mounts).
	Filter string `json:"filter,omitempty"`
}

// mountJSON is one mount in the listing and creation responses.
type mountJSON struct {
	Prefix string `json:"prefix"`
	URL    string `json:"url"`
	Mode   string `json:"mode"`
	Filter string `json:"filter,omitempty"`
	// Models counts what the mount currently provides locally.
	Models int `json:"models"`
	// SyncError carries the first sync pass's failure on a mirror
	// creation — the subscription is installed and will converge; the
	// error says why it has not yet.
	SyncError string `json:"sync_error,omitempty"`
}

// apiMounts lists both kinds of mount, sorted by prefix.
func (s *Server) apiMounts(w http.ResponseWriter, r *http.Request) {
	var out []mountJSON
	for _, sub := range s.subscriptions() {
		sub.mu.Lock()
		n := len(sub.mirrored)
		sub.mu.Unlock()
		out = append(out, mountJSON{
			Prefix: sub.spec.Prefix, URL: sub.spec.URL, Mode: mountModeMirror,
			Filter: sub.spec.Filter, Models: n,
		})
	}
	s.mu.RLock()
	mounts := append([]store.MountSpec(nil), s.mounts...)
	s.mu.RUnlock()
	for _, m := range mounts {
		out = append(out, mountJSON{
			Prefix: m.Prefix, URL: m.URL, Mode: mountModeProxy,
			Models: s.countProxies(m.Prefix),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	if out == nil {
		out = []mountJSON{}
	}
	writeJSON(w, http.StatusOK, out)
}

// countProxies counts registered proxy models under a proxy-mount
// prefix (proxy local names are prefix+"."+name).
func (s *Server) countProxies(prefix string) int {
	n := 0
	for _, name := range s.registry.Names() {
		if !strings.HasPrefix(name, prefix+".") {
			continue
		}
		if m, ok := s.registry.Lookup(name); ok {
			if _, isProxy := m.(*proxyModel); isProxy {
				n++
			}
		}
	}
	return n
}

// apiMountCreate mounts a remote library: mirror it (default) or proxy
// it.  A mirror whose first sync fails is still created — 201 with
// sync_error set — because the background loop converges as soon as
// the publisher answers; only an unusable specification is an error.
func (s *Server) apiMountCreate(w http.ResponseWriter, r *http.Request) {
	var req mountRequest
	if err := decodeJSONBody(r, &req); err != nil {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	switch req.Mode {
	case "", mountModeMirror:
		st, err := s.Subscribe(req.URL, req.Prefix, req.Filter)
		if err != nil {
			apiFail(w, r, http.StatusUnprocessableEntity, codeInvalidParams, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, mountJSON{
			Prefix: req.Prefix, URL: req.URL, Mode: mountModeMirror, Filter: req.Filter,
			Models: st.Applied + st.Unchanged, SyncError: st.LastError,
		})
	case mountModeProxy:
		n, err := s.MountRemote(req.URL, req.Prefix)
		if err != nil {
			apiFail(w, r, http.StatusUnprocessableEntity, codeInvalidParams, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, mountJSON{
			Prefix: req.Prefix, URL: req.URL, Mode: mountModeProxy, Models: n,
		})
	default:
		apiFail(w, r, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("mode must be %q or %q, got %q", mountModeMirror, mountModeProxy, req.Mode))
	}
}

// apiMountDelete unmounts by prefix, whichever kind the prefix names.
func (s *Server) apiMountDelete(w http.ResponseWriter, r *http.Request) {
	prefix := r.PathValue("prefix")
	if s.hasSubscription(prefix) {
		if err := s.Unsubscribe(prefix); err != nil {
			apiFail(w, r, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "prefix": prefix, "mode": mountModeMirror})
		return
	}
	if err := s.Unmount(prefix); err != nil {
		apiFail(w, r, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "prefix": prefix, "mode": mountModeProxy})
}

// hasSubscription reports whether prefix names a live subscription.
func (s *Server) hasSubscription(prefix string) bool {
	idx := s.pubs
	idx.mu.Lock()
	defer idx.mu.Unlock()
	_, ok := idx.subs[prefix]
	return ok
}

// Unmount removes a proxy mount: the mount-table entry, every proxy
// model registered under prefix+".", and a KindUnmount journal record
// so a restarted site does not re-mount it.
func (s *Server) Unmount(prefix string) error {
	s.mu.Lock()
	found := false
	kept := s.mounts[:0]
	for _, m := range s.mounts {
		if m.Prefix == prefix {
			found = true
			continue
		}
		kept = append(kept, m)
	}
	s.mounts = kept
	s.mu.Unlock()
	if !found {
		return fmt.Errorf("web: no mount on prefix %q", prefix)
	}
	for _, name := range s.registry.Names() {
		if !strings.HasPrefix(name, prefix+".") {
			continue
		}
		if m, ok := s.registry.Lookup(name); ok {
			if _, isProxy := m.(*proxyModel); isProxy {
				s.registry.Unregister(name)
			}
		}
	}
	if err := s.commitSite(store.Record{Kind: store.KindUnmount}, store.MountSpec{Prefix: prefix}); err != nil {
		return fmt.Errorf("web: journaling unmount of %q: %w", prefix, err)
	}
	return nil
}
