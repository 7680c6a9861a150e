package shard

// The shard wire protocol: three response headers and one status code,
// shared between the router (which emits and consumes them) and the
// backends (internal/web, which emits them).  Everything else about a
// proxied request is ordinary HTTP.

import "net/http"

// Response headers.
const (
	// HeaderShard names the process that produced a response: a shard
	// index ("2") from a backend, RoleRouter from the router's own
	// endpoints.  Every sharded response carries it, so a misbehaving
	// fleet can be blamed from curl alone.
	HeaderShard = "X-Powerplay-Shard"
	// HeaderOwner, on a ShardRedirect, carries the shard index the
	// answering backend believes owns the user.
	HeaderOwner = "X-Powerplay-Shard-Owner"
	// HeaderCount, on a ShardRedirect, carries the answering backend's
	// shard count, so a router with a stale topology can tell ownership
	// disagreement from count disagreement.
	HeaderCount = "X-Powerplay-Shard-Count"
)

// StatusMisdirected is the ShardRedirect status: 421 Misdirected
// Request, the HTTP status minted for exactly this situation — the
// server can speak the protocol but is not the right authority for
// the request.  The body is the v1 error envelope with code
// CodeShardRedirect; the router retries against HeaderOwner and never
// shows a client the 421.
const StatusMisdirected = http.StatusMisdirectedRequest

// Error-envelope codes the shard layer adds to the v1 API's closed set.
const (
	// CodeShardRedirect marks a ShardRedirect envelope (status 421).
	CodeShardRedirect = "shard_redirect"
	// CodeUnavailable marks a request refused because the owning
	// backend is down (breaker open) or unreachable (status 503).
	CodeUnavailable = "unavailable"
	// CodeBadRequest marks an unparseable request payload (status
	// 400), including a body over MaxBodyBytes.
	CodeBadRequest = "bad_request"
)

// MaxBodyBytes caps every request body, the fleet's one cap: the
// backends refuse a larger body, and the router refuses it with the
// same answer without contacting a backend.  Design imports are the
// largest legitimate payload; the paper-scale sheets serialize to a few
// kilobytes, so 4 MiB is three orders of magnitude of headroom.
const MaxBodyBytes = 4 << 20

// RoleRouter and RoleBackend are the healthz "role" values.
const (
	RoleRouter  = "router"
	RoleBackend = "backend"
)

// UserCookie is the routing cookie backends set at login: the bare
// user name, which is the shard key.  Sessions stay backend-local
// (the token cookie is opaque and meaningless off its backend); this
// cookie exists so the router can route without holding any session
// state — the fleet's only shared routing state is the hash itself.
const UserCookie = "powerplay_user"
