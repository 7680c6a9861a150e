// Command powerplay serves the PowerPlay web application: the
// spreadsheet-like power exploration environment accessible from any
// browser, plus the HTTP model-sharing API for remote sites.
//
//	powerplay -addr :8096 -data ./powerplay-data
//	powerplay -password sekrit                 # restricted site
//	powerplay -mount http://other.site=their   # mount a remote library
//	powerplay -seed                            # preload the paper's designs
//
// With -seed, the Luminance_1/Luminance_2 sheets (Figures 1-3) and the
// InfoPad system sheet (Figure 5) are installed for the "demo" user.
//
// A horizontally sharded fleet (internal/shard) runs one router in
// front of N shard-aware backends:
//
//	powerplay -shard-id 0 -shard-count 2 -data ./shard0 -addr :8100
//	powerplay -shard-id 1 -shard-count 2 -data ./shard1 -addr :8101
//	powerplay -mode router -backends 127.0.0.1:8100,127.0.0.1:8101
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/obs"
	"powerplay/internal/shard"
	"powerplay/internal/vqsim"
	"powerplay/internal/web"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8096", "listen address")
	data := flag.String("data", "", "state directory (empty = in-memory only)")
	password := flag.String("password", "", "site password (empty = open site)")
	siteName := flag.String("site", "PowerPlay", "site name shown on pages")
	seed := flag.Bool("seed", false, "preload the paper's example designs for user 'demo'")
	durability := flag.String("durability", "interval", "journal fsync policy: always, interval or never")
	sweepTimeout := flag.Duration("sweep-timeout", 0, "per-request exploration sweep budget (0 = 30s default)")
	cacheLimit := flag.Int("cache-limit", 0, "entries per read-path cache (0 = 256 default)")
	profiling := flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	mode := flag.String("mode", "serve", "process role: serve (a site/backend) or router (shard front door)")
	backends := flag.String("backends", "", "router mode: comma-separated backend addresses in shard order")
	shardID := flag.Int("shard-id", 0, "this backend's shard index (with -shard-count)")
	shardCount := flag.Int("shard-count", 0, "total shards in the fleet (0 = unsharded); router mode: hash width (0 = backend count)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "router mode: per-backend circuit-breaker cooldown (0 = 10s default)")
	var mounts multiFlag
	flag.Var(&mounts, "mount", "remote library to proxy-mount, url=prefix (repeatable)")
	var subscribes multiFlag
	flag.Var(&subscribes, "subscribe", "remote registry to mirror, url=prefix[=filter] (repeatable)")
	syncInterval := flag.Duration("sync-interval", 0, "mirror subscription poll period (0 = 5s default)")
	flag.Parse()

	if err := setupLogging(*logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "powerplay:", err)
		os.Exit(1)
	}

	if *mode == "router" {
		runRouter(*addr, *backends, *shardCount, *password, *breakerCooldown)
		return
	}
	if *mode != "serve" {
		fatal("unknown -mode", "mode", *mode)
	}

	// Parse -mount specs up front so bad syntax fails before any state
	// is touched, and so recovered mounts superseded by a flag are not
	// re-mounted twice.
	flagMounts := make(map[string]string, len(mounts)) // prefix -> url
	var flagOrder []string
	for _, m := range mounts {
		url, prefix, ok := strings.Cut(m, "=")
		if !ok {
			fatal("-mount wants url=prefix", "got", m)
		}
		if _, dup := flagMounts[prefix]; !dup {
			flagOrder = append(flagOrder, prefix)
		}
		flagMounts[prefix] = url
	}

	// Parse -subscribe specs with the same up-front strictness.
	type subSpec struct{ url, prefix, filter string }
	var flagSubs []subSpec
	subPrefixes := make(map[string]bool, len(subscribes))
	for _, sp := range subscribes {
		parts := strings.SplitN(sp, "=", 3)
		if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
			fatal("-subscribe wants url=prefix[=filter]", "got", sp)
		}
		s := subSpec{url: parts[0], prefix: parts[1]}
		if len(parts) == 3 {
			s.filter = parts[2]
		}
		if subPrefixes[s.prefix] {
			continue
		}
		subPrefixes[s.prefix] = true
		flagSubs = append(flagSubs, s)
	}

	reg := library.Standard()
	srv, err := web.NewServer(web.Config{
		SiteName: *siteName, DataDir: *data, Password: *password,
		SweepTimeout: *sweepTimeout, CacheEntries: *cacheLimit,
		Durability: *durability, SyncInterval: *syncInterval,
		ShardID: *shardID, ShardCount: *shardCount,
	}, reg)
	if err != nil {
		fatal("server setup failed", "err", err)
	}
	// Resume the subscriptions the pre-crash site had.  Their mirrored
	// models were already re-registered from the journal, so this never
	// blocks on (or even contacts) a publisher — it just restarts the
	// poll loops.
	resumed := srv.ResumeSubscriptions()
	if len(resumed) > 0 {
		slog.Info("resumed repository subscriptions", "count", len(resumed))
	}
	// Fresh -subscribe flags: the first sync runs synchronously but its
	// failure is not fatal — the mirror converges when the publisher
	// answers.  Only an unusable spec (duplicate prefix, empty URL)
	// stops the boot.  A recovered subscription on the same prefix
	// already covers the flag.
	resumedSet := make(map[string]bool, len(resumed))
	for _, p := range resumed {
		resumedSet[p] = true
	}
	for _, sp := range flagSubs {
		if resumedSet[sp.prefix] {
			slog.Info("subscription already resumed from the journal", "prefix", sp.prefix)
			continue
		}
		st, err := srv.Subscribe(sp.url, sp.prefix, sp.filter)
		if err != nil {
			fatal("subscribing to remote registry failed", "url", sp.url, "prefix", sp.prefix, "err", err)
		}
		if st.LastError != "" {
			slog.Warn("first mirror sync incomplete; the poll loop will converge",
				"url", sp.url, "prefix", sp.prefix, "err", st.LastError)
		} else {
			slog.Info("mirroring remote registry", "models", st.Applied+st.Unchanged,
				"url", sp.url, "prefix", sp.prefix)
		}
	}
	// Re-mount what the pre-crash site had mounted — best-effort, so an
	// unreachable publisher degrades the boot instead of blocking it.
	// A -mount flag for the same prefix supersedes the recovered spec.
	for _, m := range srv.RecoveredMounts() {
		if _, superseded := flagMounts[m.Prefix]; superseded {
			continue
		}
		n, err := web.Mount(reg, &web.Remote{BaseURL: m.URL, Key: *password}, m.Prefix)
		if err != nil {
			slog.Warn("re-mounting recovered remote library failed; its sheets degrade until it returns",
				"url", m.URL, "prefix", m.Prefix, "err", err)
			continue
		}
		slog.Info("re-mounted recovered remote library", "models", n, "url", m.URL, "prefix", m.Prefix)
	}
	// Fresh flag mounts stay fatal on failure: the operator asked for
	// them right now, so a typo'd URL must not silently disappear.
	for _, prefix := range flagOrder {
		url := flagMounts[prefix]
		n, err := srv.MountRemote(url, prefix)
		if err != nil {
			fatal("mounting remote library failed", "url", url, "err", err)
		}
		slog.Info("mounted remote library", "models", n, "url", url, "prefix", prefix)
	}
	if *seed {
		installed, err := seedDesigns(srv)
		switch {
		case err != nil:
			fatal("seeding designs failed", "err", err)
		case installed:
			slog.Info("seeded the paper's designs", "user", "demo")
		default:
			slog.Info("registered the InfoPad macro; user 'demo' belongs to another shard")
		}
	}
	handler := srv.Handler()
	if *profiling {
		handler = withPprof(handler)
		slog.Info("profiling enabled", "url", fmt.Sprintf("http://%s/debug/pprof/", *addr))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	// Log the *bound* address: with ":0" the chosen port is otherwise
	// unknowable, and logging before Serve means "no line in the log"
	// reliably reads as "never came up".
	slog.Info("listening", "site", *siteName, "url", "http://"+ln.Addr().String())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, handler); err != nil {
		fatal("serve failed", "err", err)
	}
	// Drain the durability layer: final snapshots, journal close.  A
	// failure here means the snapshots could not be written — the
	// journals still hold everything and will replay on the next boot,
	// but the operator must know the shutdown was not clean.
	if err := srv.Close(); err != nil {
		fatal("final snapshot on shutdown failed; journals retained for replay on next boot", "err", err)
	}
	slog.Info("shut down cleanly", "site", *siteName)
}

// runRouter is -mode router: the shard fleet's front door.  It owns no
// state at all — killing and restarting a router loses nothing — so
// its lifecycle is just listen, serve, drain.
func runRouter(addr, backends string, shardCount int, key string, cooldown time.Duration) {
	var list []string
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	if len(list) == 0 {
		fatal("-mode router needs -backends host:port[,host:port...]")
	}
	rt, err := shard.NewRouter(shard.Config{
		Backends:        list,
		ShardCount:      shardCount,
		Key:             key,
		BreakerCooldown: cooldown,
	})
	if err != nil {
		fatal("router setup failed", "err", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("listen failed", "addr", addr, "err", err)
	}
	slog.Info("router listening", "url", "http://"+ln.Addr().String(),
		"backends", len(list), "shards", rt.ShardCount())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, rt.Handler()); err != nil {
		fatal("router serve failed", "err", err)
	}
	slog.Info("router shut down cleanly")
}

// setupLogging installs the process-wide slog default, which the web
// layer's request-ID middleware then tags per request.
func setupLogging(level string, jsonOut bool) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// fatal logs at error level and exits non-zero: slog's replacement for
// log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// shutdownGrace bounds how long a stopping server waits for in-flight
// requests (a running sweep, a slow remote eval) before closing hard.
const shutdownGrace = 10 * time.Second

// drainSeconds records how long the graceful drain actually took — the
// number to compare against shutdownGrace when tuning rolling restarts.
// (Scraped in tests and by a final pre-exit log line; the /metrics
// endpoint itself is already closed by the time it settles.)
var drainSeconds = obs.NewGauge("powerplay_server_drain_seconds",
	"Duration of the last graceful shutdown drain.")

// serve runs an http.Server over the listener until ctx is canceled
// (SIGINT/SIGTERM in production), then drains in-flight requests.
// http.ErrServerClosed is the *clean* exit — only real serve or
// shutdown failures return an error.
func serve(ctx context.Context, ln net.Listener, handler http.Handler) error {
	hs := &http.Server{
		Handler: handler,
		// Transport-level hardening: a client that dribbles its header
		// bytes or parks idle keep-alives cannot pin a connection
		// forever.  Handler deadlines live in web.Config.RequestTimeout.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		slog.Info("shutting down", "grace", shutdownGrace)
		start := time.Now()
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		drain := time.Since(start)
		drainSeconds.Set(drain.Seconds())
		slog.Info("drained in-flight requests", "dur_ms", drain.Milliseconds())
		if err != nil {
			hs.Close()
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// withPprof mounts the standard profiling endpoints in front of the
// application handler.  Opt-in via -pprof: the endpoints reveal heap
// and goroutine internals, which an open site should not serve.
func withPprof(app http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", app)
	return mux
}

// seedDesigns builds the paper's three example sheets and installs them
// for user demo when this backend owns that user.  Building InfoPad
// registers its luminance macro into the site's registry, and that
// happens on every backend: any user on any shard may import an InfoPad
// copy, which prices through the macro.
func seedDesigns(srv *web.Server) (installed bool, err error) {
	reg := srv.Registry()
	d1, err := vqsim.Luminance1(reg)
	if err != nil {
		return false, err
	}
	d2, err := vqsim.Luminance2(reg)
	if err != nil {
		return false, err
	}
	d3, err := infopad.Build(reg)
	if err != nil {
		return false, err
	}
	if !srv.Owns("demo") {
		return false, nil
	}
	for _, d := range []*sheet.Design{d1, d2, d3} {
		if err := srv.InstallDesign("demo", d); err != nil {
			return false, err
		}
	}
	return true, nil
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
