package web

// The versioned JSON API surface.
//
// Every remote-protocol endpoint lives under /api/v1/..., and error
// responses use one uniform JSON envelope:
//
//	{"error": {"code": "...", "message": "...", "request_id": "..."}}
//
// The code is a small closed enumeration a program can switch on, the
// message is for humans, and the request_id matches the X-Request-ID
// response header and the server's log lines, so a failing client can
// hand its operator something grep-able.

import (
	"net/http"
	"time"

	"powerplay/internal/obs"
	"powerplay/internal/shard"
	"powerplay/internal/store"
)

// errorDetail is the body of the uniform API error envelope.
type errorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// errorEnvelope is the uniform API error response.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

// API error codes: the closed set clients may switch on.  Adding a code
// is a compatible change; repurposing one is not.
const (
	codeUnauthorized  = "unauthorized"       // missing or wrong site key
	codeNotFound      = "not_found"          // no such model
	codeBadRequest    = shard.CodeBadRequest // unparseable request payload
	codeInvalidParams = "invalid_params"     // the model rejected the evaluation
	codeInternal      = "internal"           // server-side failure
)

// apiFail writes the uniform error envelope with the request's ID.
func apiFail(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:      code,
		Message:   msg,
		RequestID: obs.RequestID(r.Context()),
	}})
}

// apiRoutes registers the JSON API: the versioned /api/v1 surface and
// the unauthenticated probes (/metrics and the health endpoint).
// handle is Server.Handler's instrumented registrar, so every route
// lands in the per-route metrics under its literal pattern.
func (s *Server) apiRoutes(handle func(pattern string, h http.HandlerFunc)) {
	// The versioned surface.
	handle("GET /api/v1/models", s.apiAuth(s.apiModels))
	handle("POST /api/v1/models", s.apiAuth(s.apiModelPublish))
	handle("GET /api/v1/models/{name...}", s.apiAuth(s.apiModelInfo))
	handle("POST /api/v1/eval", s.apiAuth(s.apiEval))
	handle("GET /api/v1/equations", s.apiAuth(s.apiEquations))
	// The model repository (see registry.go / federation.go): the
	// content-addressed catalog, immutable versioned bodies, and mount
	// management over JSON.
	handle("GET /api/v1/registry", s.apiAuth(s.apiRegistry))
	handle("GET /api/v1/registry/models/{ref...}", s.apiAuth(s.apiRegistryModel))
	handle("GET /api/v1/mounts", s.apiAuth(s.apiMounts))
	handle("POST /api/v1/mounts", s.apiAuth(s.apiMountCreate))
	handle("DELETE /api/v1/mounts/{prefix...}", s.apiAuth(s.apiMountDelete))
	// Internal shard replication (router fan-out of site models; see
	// shard.go).  Site-key guarded like the rest of the machine API.
	handle("POST /api/v1/shard/model", s.apiAuth(s.apiShardModelPut))
	// Probes: no site key, so load balancers and scrapers work against
	// password-restricted sites.  Neither exposes design data.
	handle("GET /api/v1/healthz", s.apiHealthz)
	handle("GET /metrics", obs.Handler().ServeHTTP)
}

// healthRemote summarizes one mounted publisher for the health page.
type healthRemote struct {
	BaseURL string `json:"base_url"`
	Breaker string `json:"breaker"`
	Models  int    `json:"models"`
}

// healthDurability reports the journal store's state: the fsync
// policy in force, how many records a crash right now would replay
// (journal lag), and what the last boot's recovery did.
type healthDurability struct {
	Policy            string               `json:"policy"`
	JournalLagRecords int                  `json:"journal_lag_records"`
	LastRecovery      *store.RecoveryStats `json:"last_recovery,omitempty"`
}

// healthShard is the shard identity block: which slice of the user
// corpus this backend owns.  The router's healthz has its own shape
// (role "router" plus per-backend breaker states — see
// internal/shard).
type healthShard struct {
	ShardID    int    `json:"shard_id"`
	ShardCount int    `json:"shard_count"`
	Role       string `json:"role"`
}

// healthResponse is the GET /api/v1/healthz body: alive-ness plus the
// one-glance numbers an operator checks first (uptime, load, cache
// population, the state of every mounted publisher's breaker, and —
// on a durable site — the journal store's lag and recovery stats).
type healthResponse struct {
	Status           string  `json:"status"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	InflightRequests int     `json:"inflight_requests"`
	Models           int     `json:"models"`
	ReadMemoEntries  int     `json:"read_cache_entries"`
	// SweepCacheSize is always 0: sweeps keep no point cache.
	// The field stays because v1 never drops a field.
	SweepCacheSize int               `json:"sweep_cache_entries"`
	Shard          *healthShard      `json:"shard,omitempty"`
	Remotes        []healthRemote    `json:"remotes,omitempty"`
	Durability     *healthDurability `json:"durability,omitempty"`
	// Repo lists the repository subscriptions this site mirrors: per
	// prefix, the publisher, its breaker, and the last sync pass.
	Repo []healthRepoSub `json:"repo,omitempty"`
}

// apiHealthz is the liveness endpoint: it answers 200 whenever the
// process serves requests at all, and the body carries the summary
// (degraded publishers show as open breakers, not as a failing probe).
func (s *Server) apiHealthz(w http.ResponseWriter, r *http.Request) {
	names := s.registry.Names()
	// One entry per distinct Remote, in first-seen (sorted-name) order.
	seen := make(map[*Remote]*healthRemote)
	var order []*healthRemote
	for _, name := range names {
		m, ok := s.registry.Lookup(name)
		if !ok {
			continue
		}
		pm, isProxy := m.(*proxyModel)
		if !isProxy {
			continue
		}
		hr := seen[pm.remote]
		if hr == nil {
			hr = &healthRemote{
				BaseURL: pm.remote.BaseURL,
				Breaker: pm.remote.BreakerState().String(),
			}
			seen[pm.remote] = hr
			order = append(order, hr)
		}
		hr.Models++
	}
	readN := 0
	s.mu.RLock()
	for _, u := range s.users {
		u.memoMu.Lock()
		readN += len(u.memo)
		u.memoMu.Unlock()
	}
	s.mu.RUnlock()
	resp := healthResponse{
		Status:           "ok",
		UptimeSeconds:    time.Since(s.started).Seconds(),
		InflightRequests: int(httpInflight.Value()),
		Models:           len(names),
		ReadMemoEntries:  readN,
	}
	if s.cfg.ShardCount > 0 {
		resp.Shard = &healthShard{
			ShardID:    s.cfg.ShardID,
			ShardCount: s.cfg.ShardCount,
			Role:       shard.RoleBackend,
		}
	}
	if s.store != nil {
		resp.Durability = &healthDurability{
			Policy:            s.store.Policy().String(),
			JournalLagRecords: s.store.Lag(),
			LastRecovery:      s.lastRecovery,
		}
	}
	for _, hr := range order {
		resp.Remotes = append(resp.Remotes, *hr)
	}
	resp.Repo = s.repoHealth()
	writeJSON(w, http.StatusOK, resp)
}
