package store

import (
	"encoding/json"

	"powerplay/internal/core/sheet"
)

// Kind discriminates journal records.  The set is closed and
// append-only, like sheet.MutOp: journals outlive binaries.
type Kind string

// Record kinds.
const (
	// KindUserCreate marks first access by a user; it carries no
	// payload beyond the journal it lives in (which names the user).
	KindUserCreate Kind = "user_create"
	// KindDefaults merges per-model parameter defaults (Model, Values).
	KindDefaults Kind = "defaults"
	// KindDesignPut installs a full design serialization under Design:
	// creation, import and seeding all land here.
	KindDesignPut Kind = "design_put"
	// KindDesignDelete removes the named design.
	KindDesignDelete Kind = "design_delete"
	// KindMutate applies one sheet.Mutation to the named design.
	KindMutate Kind = "mutate"

	// Site-scope kinds (the "" user's journal).

	// KindModelPut registers one user-defined equation model (Blob is
	// the library.Equation JSON).
	KindModelPut Kind = "model_put"
	// KindMount records a remote library mount (Blob is a MountSpec);
	// recovery re-mounts best-effort.
	KindMount Kind = "mount"
	// KindRefresh records a re-sync of a mounted prefix (Blob is a
	// MountSpec); only older binaries wrote it, replay still folds it.
	KindRefresh Kind = "refresh"
	// KindUnmount removes a mounted prefix (Blob is a MountSpec; only
	// Prefix matters); replay drops it from the mount set.
	KindUnmount Kind = "unmount"

	// Repository kinds (PR 10), all site scope: the mirrored slice of
	// the registry is site state, exactly like locally published models.

	// KindRepoModel installs one mirrored publication: Model is the
	// local registry name, Origin the publisher's base URL, Blob the
	// canonical content-addressed body (internal/repo's encoding, no
	// name inside).  Replay re-registers it without the publisher.
	KindRepoModel Kind = "repo_model"
	// KindRepoDrop removes a mirrored publication (Model is the local
	// name): the publisher unpublished it, or the subscription ended.
	KindRepoDrop Kind = "repo_drop"
	// KindRepoSubscribe records a subscription (Blob is a SubSpec);
	// recovery restarts its sync loop.
	KindRepoSubscribe Kind = "repo_subscribe"
	// KindRepoUnsubscribe ends a subscription (Blob is a SubSpec; only
	// Prefix matters).
	KindRepoUnsubscribe Kind = "repo_unsubscribe"
)

// Record is one journal entry: the envelope every mutating operation
// serializes into.  Fields are a union over the kinds; unused ones
// stay empty and cost nothing on the wire.
type Record struct {
	Kind Kind `json:"kind"`
	// Design names the design a design-scope record targets.
	Design string `json:"design,omitempty"`
	// Gen is the sequence number: the design generation after a
	// design-scope record applied, or the registry generation after a
	// site-scope one.  Replay skips design records at or below the
	// restored design's generation, which makes replay idempotent.
	Gen uint64 `json:"gen,omitempty"`
	// ID is the design's process identity (KindDesignPut), restored so
	// ETags survive the restart.
	ID uint64 `json:"id,omitempty"`
	// Mut is the tree edit (KindMutate).
	Mut *sheet.Mutation `json:"mut,omitempty"`
	// Blob carries a full serialization: design JSON (KindDesignPut),
	// equation-model JSON (KindModelPut), a MountSpec, a SubSpec, or a
	// canonical publication body (KindRepoModel).
	Blob json.RawMessage `json:"blob,omitempty"`
	// Model and Values carry a defaults merge (KindDefaults); Model is
	// also the local registry name on KindRepoModel/KindRepoDrop.
	Model  string             `json:"model,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	// Origin is the publisher base URL a mirrored model came from
	// (KindRepoModel).
	Origin string `json:"origin,omitempty"`
}

// MountSpec identifies a mounted remote library.  The site key is
// deliberately not persisted; recovery re-mounts with the running
// configuration's credentials.
type MountSpec struct {
	URL    string `json:"url"`
	Prefix string `json:"prefix"`
}

// SubSpec identifies a repository subscription: mirror the catalog of
// URL's registry, registering each publication locally as
// Prefix+name.  Filter, when set, narrows the catalog to publisher
// names with that prefix (the registry's `?prefix=` parameter).  Like
// MountSpec, the site key is never persisted.
type SubSpec struct {
	URL    string `json:"url"`
	Prefix string `json:"prefix"`
	Filter string `json:"filter,omitempty"`
}

// UserSnapshot is one user's full state: what a snapshot file holds
// and what recovery starts a user from before replaying the journal
// suffix.
type UserSnapshot struct {
	User     string                        `json:"user"`
	Defaults map[string]map[string]float64 `json:"defaults,omitempty"`
	Designs  []DesignSnapshot              `json:"designs,omitempty"`
}

// DesignSnapshot pins one design serialization to the identity and
// generation it was taken at: the generations this snapshot covers,
// in the log-sequence-number sense.
type DesignSnapshot struct {
	ID     uint64          `json:"id"`
	Gen    uint64          `json:"gen"`
	Design json.RawMessage `json:"design"`
}

// SiteSnapshot is the site-scope state: user-defined equation models
// (a library.DumpEquations blob — mirrored publications are Equation
// models too, so they ride in the same blob), the mounted remote
// libraries, the repository subscriptions, and which models in the
// blob are mirrors (local name → publisher URL; their digests are
// recomputed from content at boot, never persisted).
type SiteSnapshot struct {
	Models        json.RawMessage   `json:"models,omitempty"`
	Mounts        []MountSpec       `json:"mounts,omitempty"`
	Subs          []SubSpec         `json:"subs,omitempty"`
	MirrorOrigins map[string]string `json:"mirror_origins,omitempty"`
}
