package web

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"powerplay/internal/circuit"
	"powerplay/internal/core/model"
	"powerplay/internal/obs"
	"powerplay/internal/units"
)

// Remote is the client end of the Figure 6-7 protocol: it speaks to
// another PowerPlay site's /api endpoints, so "if a library is
// characterized and put on the web in Massachusetts, it can be used for
// estimates in California".
//
// The client is resilient by default.  Every request runs under a
// retry policy (exponential backoff with jitter; idempotent GETs
// retried freely, Eval POSTs only on connection-level errors) and a
// per-site circuit breaker, and every successful evaluation is kept in
// a bounded last-known-good cache so mounted models can degrade to
// visibly stale estimates instead of failing a whole sheet when the
// publisher goes down.  See DESIGN.md's "Resilience" section for the
// full contract.
type Remote struct {
	// BaseURL is the remote site root ("http://infopad.eecs.berkeley.edu").
	BaseURL string
	// Key authenticates against a password-restricted site.
	Key string

	once sync.Once
	// retry and breaker are the site's retry policy and circuit
	// breaker; init installs the defaults, and tests assign their own
	// pacing before the first request.
	retry   *retryPolicy
	breaker *circuit.Breaker
	stale   *staleCache
}

// ErrRemoteUnavailable is the typed error behind every failure that
// means "the publisher cannot be reached or is not answering sanely":
// connection errors, timeouts, 5xx statuses, truncated or garbage
// response bodies, and an open circuit breaker.  Callers distinguish it
// from application-level rejections (unknown model, invalid parameters)
// with errors.Is; it is what a never-cached proxy evaluation returns in
// degraded mode, and it survives sheet evaluation's error wrapping.
var ErrRemoteUnavailable = errors.New("remote site unavailable")

// maxRemoteBody caps how much of any remote response the client will
// decode: a misbehaving publisher cannot balloon the consumer's memory.
const maxRemoteBody = 8 << 20

// maxDrainBytes caps how much of an already-decoded body the client
// will read off the wire to make the connection reusable; beyond this
// it is cheaper to drop the connection.
const maxDrainBytes = 256 << 10

// remoteClient carries every Remote's requests; its timeout bounds
// one attempt, the retry policy bounds the attempts.
var remoteClient = &http.Client{Timeout: 10 * time.Second}

// init lazily wires the retry policy, per-site breaker and stale
// cache, so a Remote composite literal keeps working unchanged.
func (rc *Remote) init() {
	rc.once.Do(func() {
		if rc.retry == nil {
			rc.retry = defaultRetry
		}
		if rc.breaker == nil {
			rc.breaker = &circuit.Breaker{}
		}
		rc.stale = newStaleCache()
	})
}

// failKind classifies one failed attempt for the retry and breaker
// decisions.
type failKind int

const (
	failNone      failKind = iota
	failTransport          // connection-level: no HTTP response arrived
	failServer             // a 5xx status arrived
	failPayload            // 200 arrived but the body did not decode
	failApp                // the server answered with an application error
)

// retryable reports whether this kind of failure may be re-attempted
// for the given request class.
func (k failKind) retryable(idempotent bool) bool {
	if idempotent {
		return k == failTransport || k == failServer || k == failPayload
	}
	// Eval POSTs: only when the request demonstrably never produced a
	// response, so a slow-but-alive publisher is not sent duplicates.
	return k == failTransport
}

// do issues one logical request with retries and breaker accounting.
func (rc *Remote) do(ctx context.Context, method, path string, body []byte, out any, idempotent bool) error {
	rc.init()
	budget := rc.retry.attempts(idempotent)
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			remoteRetries.Inc()
			obs.Log(ctx).Debug("remote: retrying", "site", rc.BaseURL, "path", path, "attempt", attempt)
			if err := rc.retry.wait(ctx, attempt-1); err != nil {
				return fmt.Errorf("remote %s%s: %w: %v", rc.BaseURL, path, ErrRemoteUnavailable, err)
			}
		}
		if err := rc.breaker.Allow(); err != nil {
			// Fail fast: retrying against an open breaker is pointless,
			// and the typed errors let proxy models degrade to stale and
			// callers see the breaker with errors.Is.
			return fmt.Errorf("remote %s%s: %w: %w", rc.BaseURL, path, ErrRemoteUnavailable, err)
		}
		kind, err := rc.attempt(ctx, method, path, body, out)
		remoteAttempts.With(kind.String()).Inc()
		if kind == failNone {
			rc.breaker.Success()
			return nil
		}
		if kind == failApp {
			// The site answered; the request itself is at fault.  That
			// is a sign of *health* for breaker purposes.
			rc.breaker.Success()
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller gave up first: no verdict on the site.
			rc.breaker.Release()
			break
		}
		rc.breaker.Failure()
		if !kind.retryable(idempotent) {
			break
		}
	}
	return lastErr
}

// attempt issues exactly one HTTP request and classifies the outcome.
func (rc *Remote) attempt(ctx context.Context, method, path string, body []byte, out any) (failKind, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rc.BaseURL+path, rd)
	if err != nil {
		return failApp, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rc.Key != "" {
		req.Header.Set("X-PowerPlay-Key", rc.Key)
	}
	resp, err := remoteClient.Do(req)
	if err != nil {
		return failTransport, fmt.Errorf("remote %s: %w: %v", rc.BaseURL, ErrRemoteUnavailable, err)
	}
	// Drain what is left (bounded) and close, so the keep-alive
	// connection is reusable instead of torn down after every call.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode >= 500 {
			return failServer, fmt.Errorf("remote %s%s: %w: %s: %s",
				rc.BaseURL, path, ErrRemoteUnavailable, resp.Status, bytes.TrimSpace(msg))
		}
		if m := decodeAPIError(msg); m != "" {
			return failApp, fmt.Errorf("remote %s: %s", rc.BaseURL, m)
		}
		return failApp, fmt.Errorf("remote %s%s: %s: %s", rc.BaseURL, path, resp.Status, bytes.TrimSpace(msg))
	}
	// The success path is capped too: the error path always was, but an
	// unbounded decoder here let a broken publisher stream forever.
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRemoteBody)).Decode(out); err != nil {
		return failPayload, fmt.Errorf("remote %s%s: %w: bad response body: %v",
			rc.BaseURL, path, ErrRemoteUnavailable, err)
	}
	return failNone, nil
}

// decodeAPIError extracts the message of a versioned error envelope
// ({"error":{"code","message",...}}), or "" for any other body.
func decodeAPIError(msg []byte) string {
	var env errorEnvelope
	if json.Unmarshal(msg, &env) == nil {
		return env.Error.Message
	}
	return ""
}

// Models lists the remote site's library.
func (rc *Remote) Models(ctx context.Context) ([]ModelSummary, error) {
	var out []ModelSummary
	if err := rc.do(ctx, http.MethodGet, "/api/v1/models", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Info fetches one remote model's descriptor.
func (rc *Remote) Info(ctx context.Context, name string) (*ModelInfoJSON, error) {
	var out ModelInfoJSON
	if err := rc.do(ctx, http.MethodGet, "/api/v1/models/"+name, nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Eval evaluates a remote model.  Unlike the idempotent lookups, a
// failed Eval is re-sent only on connection-level errors, within the
// policy's (small) eval budget.
func (rc *Remote) Eval(ctx context.Context, name string, params map[string]float64) (*EstimateJSON, error) {
	blob, err := json.Marshal(EvalRequest{Model: name, Params: params})
	if err != nil {
		return nil, err
	}
	var out EstimateJSON
	if err := rc.do(ctx, http.MethodPost, "/api/v1/eval", blob, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// BreakerState reports the per-site circuit breaker's current state.
func (rc *Remote) BreakerState() circuit.State {
	rc.init()
	return rc.breaker.State()
}

// staleNotePrefix starts every degraded-mode note, so the sheet page
// (and tests) can recognize a stale row.
const staleNotePrefix = "stale estimate"

// proxyModel is a local model.Model whose evaluations happen on the
// remote site.
type proxyModel struct {
	remote    *Remote
	localName string
	info      model.Info
	remoteRef string
}

// Info implements model.Model.
func (p *proxyModel) Info() model.Info { return p.info }

// Volatile implements model.Volatile: a proxy's answers depend on the
// publishing site's current state (and on whether the breaker is
// serving stale values), so cached-evaluation machinery — the
// incremental Play engine, memoized sweep baselines — must always
// re-evaluate rows priced through a remote.
func (p *proxyModel) Volatile() bool { return true }

// Evaluate implements model.Model.  When the remote is unreachable (or
// its breaker is open) and this exact (model, parameter point) has been
// evaluated before, the last good estimate is served with a visible
// stale note instead of an error, so one dead publisher degrades a
// sheet instead of failing it.  Points never evaluated return the typed
// ErrRemoteUnavailable.
func (p *proxyModel) Evaluate(params model.Params) (*model.Estimate, error) {
	raw := make(map[string]float64, len(params))
	for k, v := range params {
		raw[k] = v
	}
	p.remote.init()
	key := p.remoteRef + "\x00" + params.String()
	ej, err := p.remote.Eval(context.Background(), p.remoteRef, raw)
	if err == nil {
		p.remote.stale.put(key, ej)
		return estimateFromJSON(ej), nil
	}
	if errors.Is(err, ErrRemoteUnavailable) {
		if cached, at, ok := p.remote.stale.get(key); ok {
			remoteStaleServes.Inc()
			est := estimateFromJSON(cached)
			est.Note("%s — remote unavailable; serving last good value from %s ago",
				staleNotePrefix, time.Since(at).Round(time.Second))
			return est, nil
		}
	}
	return nil, err
}

func estimateFromJSON(ej *EstimateJSON) *model.Estimate {
	est := &model.Estimate{
		VDD:   units.Volts(ej.VDD),
		Area:  units.SquareMeters(ej.Area),
		Delay: units.Seconds(ej.Delay),
		Notes: append([]string(nil), ej.Notes...),
	}
	for _, t := range ej.Dynamic {
		est.AddSwing(t.Label, units.Farads(t.Csw), units.Volts(t.Vswing), units.Hertz(t.Freq))
	}
	for _, st := range ej.Static {
		est.AddStatic(st.Label, units.Amps(st.I))
	}
	return est
}

func infoFromJSON(ij *ModelInfoJSON, localName string) model.Info {
	info := model.Info{
		Name:  localName,
		Title: ij.Title,
		Class: model.Class(ij.Class),
		Doc:   ij.Doc,
	}
	for _, p := range ij.Params {
		mp := model.Param{
			Name: p.Name, Doc: p.Doc, Unit: p.Unit,
			Default: p.Default, Min: p.Min, Max: p.Max, Integer: p.Integer,
		}
		for _, o := range p.Options {
			mp.Options = append(mp.Options, model.Option{Label: o.Label, Value: o.Value})
		}
		info.Params = append(info.Params, mp)
	}
	return info
}

// fetchProxies pulls the remote library's full schema set and builds
// the proxy models without touching any registry: the fetch half of an
// atomic Mount or Refresh.
func (rc *Remote) fetchProxies(ctx context.Context, prefix string) ([]*proxyModel, error) {
	summaries, err := rc.Models(ctx)
	if err != nil {
		return nil, err
	}
	proxies := make([]*proxyModel, 0, len(summaries))
	for _, sum := range summaries {
		ij, err := rc.Info(ctx, sum.Name)
		if err != nil {
			return nil, fmt.Errorf("fetching schema of %q: %w", sum.Name, err)
		}
		localName := prefix + "." + sum.Name
		proxies = append(proxies, &proxyModel{
			remote:    rc,
			localName: localName,
			remoteRef: sum.Name,
			info:      infoFromJSON(ij, localName),
		})
	}
	return proxies, nil
}

// Mount registers every model of the remote site into reg under
// prefix+"." (e.g. "berkeley.ucb.sram").  Parameter validation happens
// locally against the fetched schemas; evaluation happens remotely.
// It returns the number of models mounted.
//
// Mount is atomic: every schema is fetched before anything is
// registered, and a failure anywhere leaves the registry exactly as it
// was — never a partially-registered prefix.
func Mount(reg *model.Registry, rc *Remote, prefix string) (int, error) {
	return MountContext(context.Background(), reg, rc, prefix)
}

// MountContext is Mount under a caller-controlled context, which bounds
// or cancels the schema fetch.
func MountContext(ctx context.Context, reg *model.Registry, rc *Remote, prefix string) (int, error) {
	if prefix == "" {
		return 0, fmt.Errorf("web: mount needs a prefix")
	}
	proxies, err := rc.fetchProxies(ctx, prefix)
	if err != nil {
		return 0, err
	}
	// All-or-nothing: every collision is detected before anything is
	// registered, because Register replaces silently and a mount must
	// never clobber a model it does not own.
	if err := checkClobber(reg, rc, proxies); err != nil {
		return 0, err
	}
	for i, p := range proxies {
		if err := reg.Register(p); err != nil {
			// Roll back: all-or-nothing registration.
			for _, q := range proxies[:i] {
				reg.Unregister(q.localName)
			}
			return 0, err
		}
	}
	return len(proxies), nil
}

// checkClobber rejects proxies whose local name is already taken by a
// model this Remote does not own (a local model, or another mount's
// proxy).  Re-registering this Remote's own proxies is fine: that is
// what a remount or Refresh does.
func checkClobber(reg *model.Registry, rc *Remote, proxies []*proxyModel) error {
	for _, p := range proxies {
		existing, ok := reg.Lookup(p.localName)
		if !ok {
			continue
		}
		if pm, isProxy := existing.(*proxyModel); !isProxy || pm.remote != rc {
			return fmt.Errorf("web: mount would clobber existing model %q", p.localName)
		}
	}
	return nil
}

// Refresh re-syncs a mounted prefix with the remote site: changed
// schemas are replaced, newly published models appear, and models the
// site no longer serves are unmounted.  Like Mount it fetches
// everything first — on any error the existing mount is left exactly
// as it was, so a periodic refresh against a flaky publisher never
// drops a working registry.  It returns the number of models now
// mounted under the prefix.
func Refresh(ctx context.Context, reg *model.Registry, rc *Remote, prefix string) (int, error) {
	if prefix == "" {
		return 0, fmt.Errorf("web: refresh needs a prefix")
	}
	proxies, err := rc.fetchProxies(ctx, prefix)
	if err != nil {
		return 0, err
	}
	// Collisions are checked before the unmount pass, so a refresh that
	// cannot complete changes nothing at all.
	if err := checkClobber(reg, rc, proxies); err != nil {
		return 0, err
	}
	next := make(map[string]bool, len(proxies))
	for _, p := range proxies {
		next[p.localName] = true
	}
	// Unmount this Remote's proxies that disappeared from the site.
	// Only proxies pointed at this Remote are touched: a local model
	// that happens to share the prefix is not this mount's to drop.
	for _, name := range reg.Names() {
		if !strings.HasPrefix(name, prefix+".") || next[name] {
			continue
		}
		if m, ok := reg.Lookup(name); ok {
			if pm, isProxy := m.(*proxyModel); isProxy && pm.remote == rc {
				reg.Unregister(name)
			}
		}
	}
	for _, p := range proxies {
		if err := reg.Register(p); err != nil {
			return 0, err
		}
	}
	return len(proxies), nil
}

var _ model.Model = (*proxyModel)(nil)
