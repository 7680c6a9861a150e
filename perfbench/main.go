// Command perfbench is PowerPlay's benchmark: it runs the built
// cmd/powerplay binary as a separate process with its default flags
// (journal on, -durability interval) and drives it with a closed-loop
// load generator over loopback HTTP, checking every edit and sweep
// response, and a sample of views, against its own evaluation of the
// same state.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload edit-play --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// Each run sets the site up several times (boot, populate over HTTP,
// kill -9, reboot over the same data directory so the journal replays,
// warm up), keeps the last deployment, and measures one window of
// --seconds.  --trace 1 adds an in-process replay of the same seeded
// operations, half a window long, with a span around every layer call.  The last line of
// standard output is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"powerplay/internal/core/model"
)

const (
	// setupReps is how many times a run sets the site up; setup_s is
	// the median.
	setupReps = 5
	// prekillOps and warmupOps are the operations each connection runs
	// before the kill -9 (so the journal holds edits to replay) and
	// after the reboot (so caches and plans are warm).
	prekillOps = 64
	warmupOps  = 200
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same operations")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	bin := flag.String("server", "", "the built cmd/powerplay binary")
	work := flag.String("work", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	// The generator allocates a page per request; collecting less often
	// leaves more of the shared CPUs to the server under test.
	debug.SetGCPercent(400)
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	var list []*workload
	if *name == "all" {
		list = workloads
	} else if w, ok := workloadByName(*name); ok {
		list = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{bin: *bin, work: *work, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	var last []byte
	for _, w := range list {
		m, err := run(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		m.report(os.Stdout)
		if last, err = m.resultJSON(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if len(list) > 1 {
			fmt.Println(string(last))
		}
	}
	if len(list) == 1 {
		fmt.Println(string(last))
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type runConfig struct {
	bin, work string
	seed      int64
	window    time.Duration
	trace     bool
}

// newCheckRNG seeds the checker's choice of sweep points to re-price.
func newCheckRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

// deployment is the running process set of one set-up: one server, or
// two shard backends behind a router.
type deployment struct {
	w     *workload
	bin   string
	dir   string
	procs []*server // backends first, the router last
	front string
}

func (dp *deployment) launch() error {
	if !dp.w.routed {
		s, err := startServer(dp.bin, "-seed", "-data", filepath.Join(dp.dir, "site"))
		if err != nil {
			return err
		}
		dp.procs, dp.front = []*server{s}, s.base
		return nil
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := startServer(dp.bin, "-seed", "-data", filepath.Join(dp.dir, fmt.Sprintf("shard%d", i)),
			"-shard-id", fmt.Sprint(i), "-shard-count", "2")
		if err != nil {
			dp.kill()
			return err
		}
		dp.procs = append(dp.procs, s)
		addrs = append(addrs, strings.TrimPrefix(s.base, "http://"))
	}
	r, err := startServer(dp.bin, "-mode", "router", "-backends", strings.Join(addrs, ","))
	if err != nil {
		dp.kill()
		return err
	}
	dp.procs = append(dp.procs, r)
	dp.front = r.base
	return nil
}

// kill stops every process with SIGKILL and waits for each to exit.
func (dp *deployment) kill() {
	for _, p := range dp.procs {
		p.kill()
	}
	dp.procs = nil
}

// backends are the processes that hold state (all but the router).
func (dp *deployment) backends() []*server {
	if dp.w.routed {
		return dp.procs[:len(dp.procs)-1]
	}
	return dp.procs
}

// measure holds everything one run observed.
type measure struct {
	w    *workload
	cfg  runConfig
	meta map[string]string

	setups []float64
	window float64 // seconds

	samples []sample              // correct operations of the window
	lat     map[opClass][]float64 // ms, correct operations only, sorted
	slices  []sliceStat
	ops     int64 // attempted in the window
	sent    int64 // answered (any status)
	correct int64
	points  int64
	wire    int64
	clientS float64 // summed client latency of answered operations, seconds

	windowFails failureLog
	setupFails  failureLog
	setupChecks int64

	d             scrape  // /metrics delta over the window, summed over processes
	cpu           float64 // server CPU seconds over the window
	clientCPU     float64 // the generator's own CPU seconds over the window
	rss           float64
	replayRecords float64
	recoveryMs    float64

	tr *tracedRun
}

func (m *measure) pct(c opClass, q float64) float64 {
	v, _ := percentile(m.lat[c], q)
	return v
}

func (m *measure) per1k(x float64) float64 { return 1000 * ratio(x, float64(m.sent)) }

// handlerMean is the mean server handler time of the operations' routes.
func (m *measure) handlerMean() float64 {
	sum, n := 0.0, 0.0
	for _, r := range opRoutes {
		sum += m.d.sum("powerplay_http_request_seconds_sum", r)
		n += m.d.sum("powerplay_http_request_seconds_count", r)
	}
	return ratio(sum, n)
}

func (m *measure) clientMean() float64 { return ratio(m.clientS, float64(m.sent)) }

// run sets the workload up setupReps times and measures the last set-up.
func run(w *workload, cfg runConfig) (*measure, error) {
	runDir, err := filepath.Abs(filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-seed%d-pid%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	reg, err := siteRegistry()
	if err != nil {
		return nil, err
	}
	m := &measure{w: w, cfg: cfg, meta: runMeta(w, cfg), lat: map[opClass][]float64{}}

	var dp *deployment
	var s *site
	var conns []*conn
	defer func() {
		for _, c := range conns {
			c.close()
		}
		if dp != nil {
			dp.kill()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if dp != nil {
			for _, c := range conns {
				c.close()
			}
			dp.kill()
		}
		dp = &deployment{w: w, bin: cfg.bin, dir: filepath.Join(runDir, fmt.Sprintf("setup%d", rep))}
		start := time.Now()
		s, conns, err = setUp(dp, cfg.seed, reg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		m.setupFails.merge(&s.fails)
		m.setupChecks += s.checks
		s.fails, s.checks = failureLog{}, 0
	}
	if err := m.measureWindow(dp, s, conns); err != nil {
		return nil, err
	}
	if cfg.trace {
		traceDir := filepath.Join(runDir, "trace")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if m.tr, err = runTraced(w, cfg.seed, cfg.window/2, traceDir); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		spanDir := filepath.Join(cfg.work, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed)), m.tr.spans); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// setUp boots a deployment, populates it over HTTP, kills it with
// SIGKILL, reboots it over the same data directories, verifies the
// recovered pages and warms it up.  It returns the warmed window
// connections.
func setUp(dp *deployment, seed int64, reg *model.Registry) (*site, []*conn, error) {
	if err := dp.launch(); err != nil {
		return nil, nil, err
	}
	c := newConn(dp.front, false)
	defer c.close()
	s := newSite(dp.w, seed)
	if err := s.populate(c, reg); err != nil {
		return nil, nil, err
	}
	rng := newCheckRNG(seed)
	if dp.w.primary == classSweep {
		s.checkRanges(c, rng)
	}
	for i := 0; i < prekillOps; i++ {
		for _, g := range s.streams {
			s.record("set-up", s.exec(c, g.next(), rng, nil))
		}
	}
	before := s.capture(c)
	c.close()
	dp.kill()
	if err := dp.launch(); err != nil {
		return nil, nil, fmt.Errorf("reboot: %w", err)
	}
	c2 := newConn(dp.front, false)
	defer c2.close()
	if err := s.relogin(c2); err != nil {
		return nil, nil, fmt.Errorf("after reboot: %w", err)
	}
	s.verifyRecovery(c2, before)
	conns := make([]*conn, dp.w.conns)
	var wg sync.WaitGroup
	for i := range conns {
		conns[i] = newConn(dp.front, true)
		wg.Add(1)
		go func(c *conn, g *stream) {
			defer wg.Done()
			crng := newCheckRNG(seed + int64(g.n))
			for j := 0; j < warmupOps; j++ {
				s.record("warm-up", s.exec(c, g.next(), crng, nil))
			}
		}(conns[i], s.streams[i])
	}
	wg.Wait()
	return s, conns, nil
}

// record folds one set-up or warm-up result into the set-up counters.
func (s *site) record(phase string, res result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks++
	if res.err != nil {
		s.fails.add(phase, res.err)
	}
}

// measureWindow runs the closed loop on every connection for the
// window and reads the server side before and after.
func (m *measure) measureWindow(dp *deployment, s *site, conns []*conn) error {
	procs := dp.procs
	before, err := scrapeAll(procs)
	if err != nil {
		return err
	}
	if m.recoveryMs, err = recoveryMs(dp.backends()[0].base); err != nil {
		return err
	}
	for _, b := range dp.backends()[1:] {
		r, err := recoveryMs(b.base)
		if err != nil {
			return err
		}
		m.recoveryMs += r
	}
	m.replayRecords = before.get("powerplay_store_replay_records_total")
	cpu0, err := cpuAll(procs)
	if err != nil {
		return err
	}
	self0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return err
	}

	type connOut struct {
		samples                       []sample
		ops, sent, correct, pts, wire int64
		clientS                       float64
		fails                         failureLog
	}
	outs := make([]connOut, len(conns))
	start := time.Now()
	deadline := start.Add(m.cfg.window)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			g := s.streams[i]
			rng := newCheckRNG(m.cfg.seed + int64(i) + 1)
			for time.Now().Before(deadline) {
				res := s.exec(conns[i], g.next(), rng, nil)
				o.ops++
				if res.sent {
					o.sent++
					o.wire += int64(res.wire)
					o.clientS += res.took.Seconds()
				}
				if res.err != nil {
					o.fails.add(res.class.String(), res.err)
					continue
				}
				o.correct++
				o.pts += int64(res.points)
				o.samples = append(o.samples, sample{class: res.class, end: time.Since(start).Seconds(),
					ms: float64(res.took.Nanoseconds()) / 1e6})
			}
		}(i)
	}
	wg.Wait()
	m.window = time.Since(start).Seconds()

	cpu1, err := cpuAll(procs)
	if err != nil {
		return err
	}
	self1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return err
	}
	m.clientCPU = self1 - self0
	after, err := scrapeAll(procs)
	if err != nil {
		return err
	}
	m.d = after.sub(before)
	m.cpu = cpu1 - cpu0
	for _, p := range procs {
		r, err := peakRSSMiB(p.pid())
		if err != nil {
			return err
		}
		m.rss += r
	}
	for _, o := range outs {
		m.ops += o.ops
		m.sent += o.sent
		m.correct += o.correct
		m.points += o.pts
		m.wire += o.wire
		m.clientS += o.clientS
		m.windowFails.merge(&o.fails)
		m.samples = append(m.samples, o.samples...)
	}
	for _, smp := range m.samples {
		m.lat[smp.class] = append(m.lat[smp.class], smp.ms)
	}
	for _, xs := range m.lat {
		sort.Float64s(xs)
	}
	m.slices = sliceStats(m.samples, m.w.primary, m.window)
	if m.sent == 0 || m.correct == 0 {
		return fmt.Errorf("no correct responses in the window (%d attempted): %s", m.ops, strings.Join(m.windowFails.first, "; "))
	}
	return nil
}

func scrapeAll(procs []*server) (scrape, error) {
	total := scrape{}
	for _, p := range procs {
		s, err := fetchMetrics(p.base)
		if err != nil {
			return nil, err
		}
		total = total.add(s)
	}
	return total, nil
}

func cpuAll(procs []*server) (float64, error) {
	total := 0.0
	for _, p := range procs {
		c, err := cpuSeconds(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// runMeta records what a result depends on besides the code.
func runMeta(w *workload, cfg runConfig) map[string]string {
	commit := "unknown"
	if bi, err := buildinfo.ReadFile(cfg.bin); err == nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	digest := "unknown"
	if f, err := os.Open(cfg.bin); err == nil {
		h := sha256.New()
		if _, err := io.Copy(h, f); err == nil {
			digest = hex.EncodeToString(h.Sum(nil))[:16]
		}
		f.Close()
	}
	return map[string]string{
		"workload":    w.name,
		"seed":        fmt.Sprint(cfg.seed),
		"commit":      commit,
		"server_sha":  digest,
		"nproc":       fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":  fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":          runtime.Version(),
		"connections": fmt.Sprint(w.conns),
		"loop":        "closed",
		"window_s":    fmt.Sprint(cfg.window.Seconds()),
		"routed":      fmt.Sprint(w.routed),
	}
}

// failed counts every failed check of the run: set-up, window and
// traced replay.
func (m *measure) totals() (attempted, failed int64) {
	attempted = m.ops + m.setupChecks
	failed = m.windowFails.n + m.setupFails.n
	if m.tr != nil {
		attempted += m.tr.checks
		failed += m.tr.fails.n
	}
	return attempted, failed
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the run's last output line.
func (m *measure) resultJSON() ([]byte, error) {
	attempted, failed := m.totals()
	list := endToEnd
	if m.tr != nil {
		list = perLayer
	}
	out := map[string]jsonMetric{}
	for _, mt := range list {
		out[mt.name] = jsonMetric{Value: mt.value(m), Unit: mt.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{failed == 0, attempted, failed, out})
}

// report prints every metric by name with its unit and sample count,
// the per-layer ones tagged with what they should move.
func (m *measure) report(out io.Writer) {
	keys := make([]string, 0, len(m.meta))
	for k := range m.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var meta []string
	for _, k := range keys {
		meta = append(meta, k+"="+m.meta[k])
	}
	fmt.Fprintf(out, "== perfbench %s\n   %s\n   why: %s\n", m.w.name, strings.Join(meta, " "), m.w.why)
	if m.w.notes != "" {
		fmt.Fprintf(out, "   known defect: %s\n", m.w.notes)
	}
	line := func(mt metric, tag string) {
		n := ""
		if mt.count != nil {
			n = fmt.Sprintf("n=%d", mt.count(m))
		}
		fmt.Fprintf(out, "   %-34s %14.4f %-5s %-8s %s\n", mt.name, mt.value(m), mt.unit, n, tag)
	}
	var tp []string
	for _, sl := range m.slices {
		tp = append(tp, fmt.Sprintf("%.0f", sl.throughput))
	}
	fmt.Fprintf(out, "-- end to end (untraced; medians over %d sub-windows of %.2f s, throughput by sub-window: %s)\n",
		len(m.slices), m.window/float64(len(m.slices)), strings.Join(tp, " "))
	for _, mt := range endToEnd {
		line(mt, "")
	}
	for _, mt := range perClass() {
		if mt.count(m) == 0 {
			continue
		}
		tag := ""
		if mt.counted != nil && !mt.counted(m) {
			tag = "not counted: fewer than 10 samples beyond"
		}
		line(mt, tag)
	}
	fmt.Fprintln(out, "-- per layer (/metrics deltas over the window; † traced replay)")
	for _, mt := range perLayer {
		if m.tr == nil && strings.HasSuffix(mt.moves, "†") {
			continue
		}
		line(mt, "moves "+mt.moves)
	}
	for _, mt := range layerExtras(m) {
		line(mt, "moves "+mt.moves)
	}
	attempted, failed := m.totals()
	fmt.Fprintf(out, "-- correctness: %d of %d checks failed (set-up %d/%d, window %d/%d",
		failed, attempted, m.setupFails.n, m.setupChecks, m.windowFails.n, m.ops)
	all := failureLog{}
	all.merge(&m.setupFails)
	all.merge(&m.windowFails)
	if m.tr != nil {
		fmt.Fprintf(out, ", traced %d/%d", m.tr.fails.n, m.tr.checks)
		all.merge(&m.tr.fails)
	}
	fmt.Fprintln(out, ")")
	reasons := make([]string, 0, len(all.counts))
	for r := range all.counts {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return all.counts[reasons[i]] > all.counts[reasons[j]] })
	for _, r := range reasons {
		fmt.Fprintf(out, "   %6d x %s\n", all.counts[r], r)
	}
	for _, f := range all.first {
		fmt.Fprintf(out, "   e.g. %s\n", f)
	}
}
