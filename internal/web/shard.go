package web

// The backend half of horizontal sharding (internal/shard holds the
// router half and the protocol).  A backend configured with
// Config.ShardID/ShardCount owns exactly the users the rendezvous hash
// assigns to its shard: it recovers only their journals at boot
// (~1/N of the corpus), refuses the rest with a 421 ShardRedirect that
// names the real owner, and stamps every response with its shard index
// so the fleet is debuggable from curl alone.  Site models are
// replicated to every backend by the router through apiShardModelPut
// below, so model reads never cross shards.

import (
	"mime"
	"net/http"
	"strconv"

	"powerplay/internal/library"
	"powerplay/internal/shard"
)

// Owns reports whether this server is the authority for the named
// user.  An unsharded server owns everyone.
func (s *Server) Owns(user string) bool {
	if s.ring == nil {
		return true
	}
	return s.ring.Pick(user) == s.cfg.ShardID
}

// shardID spells the server's shard index for the response header.
func (s *Server) shardID() string { return strconv.Itoa(s.cfg.ShardID) }

// shardRedirect answers a request for a user this shard does not own:
// 421 Misdirected Request, the owner and shard count in the protocol
// headers, and the v1 error envelope in the body.  The router consumes
// the 421 and retries against the owner; a direct client sees an
// explicit, actionable refusal instead of a silently empty account.
func (s *Server) shardRedirect(w http.ResponseWriter, r *http.Request, user string) {
	owner := s.ring.Pick(user)
	w.Header().Set(shard.HeaderOwner, strconv.Itoa(owner))
	w.Header().Set(shard.HeaderCount, strconv.Itoa(s.cfg.ShardCount))
	w.Header().Set(shard.HeaderShard, s.shardID())
	apiFail(w, r, shard.StatusMisdirected, shard.CodeShardRedirect,
		"user "+user+" belongs to shard "+strconv.Itoa(owner))
}

// misdirected reports (and answers) a request routed to the wrong
// shard, keyed the same way the router keys its routing decision: the
// powerplay_user cookie.  Handlers that resolve the user another way
// (the login form) make their own check.  No-op on unsharded servers.
func (s *Server) misdirected(w http.ResponseWriter, r *http.Request) bool {
	if s.ring == nil {
		return false
	}
	c, err := r.Cookie(shard.UserCookie)
	if err != nil || c.Value == "" || !validUserName(c.Value) || s.Owns(c.Value) {
		return false
	}
	s.shardRedirect(w, r, c.Value)
	return true
}

// shardHeaderMiddleware stamps every response with this backend's
// shard index.
func shardHeaderMiddleware(next http.Handler, id string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(shard.HeaderShard, id)
		next.ServeHTTP(w, r)
	})
}

// apiShardModelPut is the internal replication endpoint the router
// fans site-model publishes out to: the form POST /models/new accepts,
// or, with Content-Type application/json, the body POST /api/v1/models
// accepts, guarded by the site key (apiAuth) rather than a session.
// It publishes through the same path as both, so the same rules hold
// (a mirrored name is refused).  Publishing is idempotent — replaying
// a replication is harmless — and each backend journals the model into
// its own site scope, so a restarted backend recovers the model
// without the router's help.
func (s *Server) apiShardModelPut(w http.ResponseWriter, r *http.Request) {
	var q *library.Equation
	var err error
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "application/json" {
		q = new(library.Equation)
		err = decodeJSONBody(r, q)
	} else {
		q, err = equationFromForm(r)
	}
	if err != nil {
		apiFail(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if _, err := s.publishModel(q); err != nil {
		apiFail(w, r, http.StatusUnprocessableEntity, codeInvalidParams, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "model": q.Name})
}
