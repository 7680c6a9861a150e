// Command loadgen measures the sheet serving hot path: N concurrent
// clients replaying mixed GET / conditional-GET / Play traffic against
// an in-process PowerPlay site.  It prints a phase table and writes the
// numbers to a JSON report (BENCH_SERVE.json).
//
// Usage:
//
//	loadgen [-clients 16] [-requests 300] [-o BENCH_SERVE.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/web"
)

type phaseReport struct {
	Name       string      `json:"name"`
	Clients    int         `json:"clients"`
	Requests   int         `json:"requests"`
	Gomaxprocs int         `json:"gomaxprocs"`
	WallMs     float64     `json:"wall_ms"`
	RPS        float64     `json:"requests_per_second"`
	P50Us      float64     `json:"p50_us"`
	P99Us      float64     `json:"p99_us"`
	Status     map[int]int `json:"status_counts"`
	// Server-side numbers, folded in from a /metrics scrape around the
	// phase: what the instrumentation itself says happened, as opposed
	// to the client-observed latencies above.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	ServerP50Us   float64 `json:"server_p50_us"`
	ServerP99Us   float64 `json:"server_p99_us"`
	// Incremental-engine numbers (edit-play phases): average dirty-cone
	// size per Play and engine runs by mode, from the same scrape delta.
	AvgDirtySlots float64            `json:"avg_dirty_slots,omitempty"`
	PlaysByMode   map[string]float64 `json:"plays_by_mode,omitempty"`
}

type report struct {
	Design     string            `json:"design"`
	Clients    int               `json:"clients"`
	PerClient  int               `json:"requests_per_client"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	GoVersion  string            `json:"go_version"`
	Phases     []phaseReport     `json:"phases"`
	Recovery   *recoveryReport   `json:"recovery,omitempty"`
	Shard      *shardReport      `json:"shard,omitempty"`
	Federation *federationReport `json:"federation,omitempty"`
}

// recoveryReport is the crash-recovery phase: a durable site takes a
// burst of edit-Plays, is abandoned without shutdown (so its final
// snapshot never happens and the journal carries the tail), and a
// fresh server boots over the same directory.  The headline numbers
// are how long that boot's replay took and whether the recovered
// sheet is byte-identical — same ETag, same page — to the one the
// crashed server last served.
type recoveryReport struct {
	EditPlays        int     `json:"edit_plays"`
	JournalLagBefore int     `json:"journal_lag_records_precrash"`
	RecoveryMs       float64 `json:"recovery_ms"`
	RecordsReplayed  int     `json:"records_replayed"`
	SnapshotsLoaded  int     `json:"snapshots_loaded"`
	ByteIdentical    bool    `json:"byte_identical"`
}

func main() {
	clients := flag.Int("clients", 16, "concurrent clients")
	perClient := flag.Int("requests", 300, "requests per client per phase")
	out := flag.String("o", "", "write the JSON report to this file")
	flag.Parse()

	cached := newSite(web.Config{})
	defer cached.ts.Close()

	rep := report{
		Design:     "InfoPad",
		Clients:    *clients,
		PerClient:  *perClient,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	run := func(name string, s site, kind trafficKind) phaseReport {
		// Every in-process site shares one process-global metrics
		// registry, so a scrape around the phase isolates its traffic:
		// phases run sequentially and the deltas belong to this one.
		before := scrapeMetrics(s.ts.URL)
		p := runPhase(name, s, *clients, *perClient, kind)
		after := scrapeMetrics(s.ts.URL)
		foldMetrics(&p, kind, before, after)
		rep.Phases = append(rep.Phases, p)
		fmt.Printf("%-22s %8.0f req/s   p50 %7.0f µs   p99 %7.0f µs   hit %4.0f%%   %v\n",
			p.Name, p.RPS, p.P50Us, p.P99Us, 100*p.CacheHitRatio, p.Status)
		return p
	}
	// runAt pins GOMAXPROCS for one phase; the report records the
	// setting each phase actually ran under.
	runAt := func(name string, s site, kind trafficKind, procs int) phaseReport {
		old := runtime.GOMAXPROCS(procs)
		p := run(name, s, kind)
		runtime.GOMAXPROCS(old)
		return p
	}
	run("cached-get", cached, plainGET)
	run("cached-conditional-get", cached, conditionalGET)
	run("cached-mixed-play", cached, mixedPlay)
	// Edit-Play: every request rebinds one supply and hits Play — the
	// interactive loop the incremental engine serves — pinned to one
	// core and run at full width, so the report states both honestly.
	runAt("edit-play-1cpu", cached, editPlay, 1)
	if runtime.NumCPU() > 1 {
		runAt("edit-play", cached, editPlay, runtime.NumCPU())
	}

	rec := runRecoveryPhase(*perClient)
	rep.Recovery = &rec
	fmt.Printf("%-22s %8d records replayed in %6.1f ms   byte-identical %v\n",
		"crash-recovery", rec.RecordsReplayed, rec.RecoveryMs, rec.ByteIdentical)

	sh := runShardPhase(*clients, *perClient)
	rep.Shard = &sh
	fmt.Printf("%-22s %8.0f req/s (N=1)  %8.0f req/s (N=4)   %.2fx   efficiency %.2f\n",
		"shard-scaling", sh.RPSN1, sh.RPSN4, sh.Speedup, sh.ScalingEfficiency)

	fed := runFederationPhase(*perClient)
	rep.Federation = &fed
	fmt.Printf("%-22s local p50 %5.0f µs   publisher-dead p50 %5.0f µs   ratio %.2f   round-trips %d\n",
		"federation", fed.LocalP50Us, fed.MirroredDeadP50Us, fed.LatencyRatioP50, fed.RemoteRoundTrips)

	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

type site struct {
	srv      *web.Server
	ts       *httptest.Server
	sheetURL string
}

// newSite builds one in-process PowerPlay site serving the Figure 5
// InfoPad sheet for user "bench".
func newSite(cfg web.Config) site {
	s, err := web.NewServer(cfg, library.Standard())
	if err != nil {
		log.Fatal(err)
	}
	d, err := infopad.Build(s.Registry())
	if err != nil {
		log.Fatal(err)
	}
	if err := s.InstallDesign("bench", d); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return site{srv: s, ts: ts, sheetURL: ts.URL + "/design/" + url.PathEscape(d.Name)}
}

// runRecoveryPhase measures crash recovery end to end: a durable
// (fsync-always) site absorbs edits Plays, the last-served sheet page
// and ETag are captured, and the server is abandoned mid-flight — no
// Close, no final snapshot, exactly what kill -9 leaves behind.  A
// second server then boots over the same data directory; the phase
// times that boot and checks the recovered sheet byte-for-byte.
func runRecoveryPhase(edits int) recoveryReport {
	dir, err := os.MkdirTemp("", "powerplay-loadgen-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := web.Config{DataDir: dir, Durability: "always"}
	s1 := newSite(cfg)
	c := login(s1.ts.URL)
	for n := 0; n < edits; n++ {
		v := "5"
		if n%2 == 1 {
			v = "5.1"
		}
		resp, err := c.PostForm(s1.sheetURL+"/play", url.Values{"glob_vdd3": {v}})
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("recovery phase: play: %s", resp.Status)
		}
	}
	wantBody, wantETag := fetchSheet(c, s1.sheetURL)
	rec := recoveryReport{
		EditPlays:        edits,
		JournalLagBefore: s1.srv.JournalLag(),
	}
	// The crash: drop the server on the floor.  Only the test listener
	// is closed; srv.Close() — the snapshot-and-drain path — never runs.
	s1.ts.Close()

	t0 := time.Now()
	s2, err := web.NewServer(cfg, library.Standard())
	if err != nil {
		log.Fatalf("recovery phase: reboot over %s: %v", dir, err)
	}
	rec.RecoveryMs = float64(time.Since(t0).Microseconds()) / 1e3
	if st := s2.LastRecovery(); st != nil {
		rec.RecordsReplayed = st.RecordsReplayed
		rec.SnapshotsLoaded = st.SnapshotsLoaded
	}
	// Re-run the boot-time seeding exactly as a restarted process would:
	// Build re-registers the luminance macro (a registry side effect the
	// journal never sees), and InstallDesign finds the recovered design
	// already present and leaves it alone.
	d2, err := infopad.Build(s2.Registry())
	if err != nil {
		log.Fatal(err)
	}
	if err := s2.InstallDesign("bench", d2); err != nil {
		log.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := login(ts2.URL)
	gotBody, gotETag := fetchSheet(c2, ts2.URL+strings.TrimPrefix(s1.sheetURL, s1.ts.URL))
	rec.ByteIdentical = gotBody == wantBody && gotETag == wantETag
	if !rec.ByteIdentical {
		log.Fatalf("recovery phase: recovered sheet differs (etag %q vs %q, %d vs %d bytes)",
			gotETag, wantETag, len(gotBody), len(wantBody))
	}
	if err := s2.Close(); err != nil {
		log.Fatalf("recovery phase: clean shutdown: %v", err)
	}
	return rec
}

// fetchSheet GETs one sheet page and returns its body and ETag.
func fetchSheet(c *http.Client, url string) (body, etag string) {
	resp, err := c.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("recovery phase: GET %s: %s", url, resp.Status)
	}
	return string(raw), resp.Header.Get("ETag")
}

type trafficKind int

const (
	plainGET trafficKind = iota
	conditionalGET
	mixedPlay // one Play per 16 requests, the rest plain GETs
	editPlay  // every request rebinds one binding and Plays
)

// runPhase drives the site with nClients concurrent logged-in clients
// and aggregates latency percentiles and status counts.
func runPhase(name string, s site, nClients, perClient int, kind trafficKind) phaseReport {
	type result struct {
		lat    []time.Duration
		status map[int]int
	}
	results := make([]result, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := login(s.ts.URL)
			r := result{status: make(map[int]int)}
			etag := ""
			for n := 0; n < perClient; n++ {
				var resp *http.Response
				var err error
				t0 := time.Now()
				if kind == editPlay {
					// Alternate the vdd3 supply rail (LCDs and the DC-DC
					// converter hang off it) so every Play re-prices a real
					// dirty cone rather than hitting the no-edit fast path.
					v := "5"
					if n%2 == 1 {
						v = "5.1"
					}
					resp, err = c.PostForm(s.sheetURL+"/play",
						url.Values{"glob_vdd3": {v}})
				} else if kind == mixedPlay && n%16 == 15 {
					resp, err = c.PostForm(s.sheetURL+"/play",
						url.Values{"glob_fclk": {"20MHz"}})
				} else {
					req, rerr := http.NewRequest("GET", s.sheetURL, nil)
					if rerr != nil {
						log.Fatal(rerr)
					}
					if kind == conditionalGET && etag != "" {
						req.Header.Set("If-None-Match", etag)
					}
					resp, err = c.Do(req)
				}
				if err != nil {
					log.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				r.lat = append(r.lat, time.Since(t0))
				r.status[resp.StatusCode]++
				if e := resp.Header.Get("ETag"); e != "" {
					etag = e
				}
			}
			results[id] = r
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	status := make(map[int]int)
	for _, r := range results {
		all = append(all, r.lat...)
		for code, n := range r.status {
			status[code] += n
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Microseconds())
	}
	total := nClients * perClient
	return phaseReport{
		Name:       name,
		Clients:    nClients,
		Requests:   total,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		WallMs:     float64(wall.Milliseconds()),
		RPS:        float64(total) / wall.Seconds(),
		P50Us:      pct(0.50),
		P99Us:      pct(0.99),
		Status:     status,
	}
}

// scrapeMetrics fetches the site's /metrics page and parses it into a
// flat map of "name{labels}" -> value.  Comment lines are skipped; the
// parser accepts exactly what internal/obs emits (no timestamps, one
// space before the value).
func scrapeMetrics(base string) map[string]float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(blob), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// Instrumented route patterns the server-side latency quantiles are
// computed from: the sheet GET for read phases, the Play POST for the
// edit-play recompute phases.
const (
	sheetRouteLabel = `route="GET /design/{name}"`
	playRouteLabel  = `route="POST /design/{name}/play"`
)

// foldMetrics computes the phase's server-side numbers from the
// before/after scrape delta: pagecache hit ratio (evaluation memo plus
// rendered page), latency quantiles of the phase's route histogram,
// and — for edit-play phases — the incremental engine's dirty-cone
// size and runs by mode.
func foldMetrics(p *phaseReport, kind trafficKind, before, after map[string]float64) {
	delta := func(key string) float64 { return after[key] - before[key] }
	hits := delta(`powerplay_pagecache_events_total{event="result_hit"}`) +
		delta(`powerplay_pagecache_events_total{event="page_hit"}`)
	misses := delta(`powerplay_pagecache_events_total{event="result_miss"}`) +
		delta(`powerplay_pagecache_events_total{event="page_miss"}`)
	if hits+misses > 0 {
		p.CacheHitRatio = hits / (hits + misses)
	}
	route := sheetRouteLabel
	if kind == editPlay {
		route = playRouteLabel
	}
	p.ServerP50Us = histQuantileUs(before, after, route, 0.50)
	p.ServerP99Us = histQuantileUs(before, after, route, 0.99)
	if kind == editPlay || kind == mixedPlay {
		if n := delta("powerplay_sheet_dirty_slots_count"); n > 0 {
			p.AvgDirtySlots = delta("powerplay_sheet_dirty_slots_sum") / n
		}
		p.PlaysByMode = make(map[string]float64)
		for _, mode := range []string{"incremental", "full", "fallback"} {
			if n := delta(`powerplay_sheet_incremental_plays_total{mode="` + mode + `"}`); n > 0 {
				p.PlaysByMode[mode] = n
			}
		}
	}
}

// histQuantileUs estimates a latency quantile (in µs) from one route's
// cumulative bucket deltas, interpolating linearly inside the winning
// bucket the way Prometheus's histogram_quantile does.
func histQuantileUs(before, after map[string]float64, route string, q float64) float64 {
	prefix := "powerplay_http_request_seconds_bucket{" + route + `,le="`
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for key, v := range after {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		buckets = append(buckets, bucket{le: le, cum: v - before[key]})
	}
	if len(buckets) == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				// Above the last finite bound: report that bound.
				return prevLe * 1e6
			}
			frac := 0.0
			if b.cum > prevCum {
				frac = (rank - prevCum) / (b.cum - prevCum)
			}
			return (prevLe + (b.le-prevLe)*frac) * 1e6
		}
		prevLe, prevCum = b.le, b.cum
	}
	return prevLe * 1e6
}

// login returns a client holding a session for user "bench".  Each
// client gets its own keep-alive transport: the shared DefaultTransport
// caps idle connections per host at 2, and 16 clients churning TCP
// dials would swamp the serving cost being measured.
func login(base string) *http.Client {
	jar, _ := cookiejar.New(nil)
	c := &http.Client{
		Jar: jar,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			// The generator shares the process with the server; letting
			// the transport negotiate gzip would bill per-request client
			// inflate to the serving numbers.  Both phases measure
			// identity responses.
			DisableCompression: true,
		},
	}
	resp, err := c.PostForm(base+"/login", url.Values{"user": {"bench"}})
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("login: %s", resp.Status)
	}
	return c
}
