package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// A workload is one traffic mix against the site.  Every workload is a
// closed loop: each connection sends its next request only after the
// previous response has been read, as a designer waits for the page
// before the next click.
type workload struct {
	name string
	// why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json).
	why string
	// conns is the number of connections, each driven by one goroutine.
	conns int
	// users is the number of accounts holding imported copies of the
	// three seeded designs.
	users int
	// routed puts the site behind -mode router over two shard backends.
	routed bool
	// next draws one operation for a connection.
	next func(g *stream) op
	// primary is the operation class whose latency is the workload's
	// p50_ms.
	primary opClass
	// notes name known defects the workload exposes.
	notes string
}

// Every workload runs two connections, each on sheets of its own: on
// a two-CPU machine a single connection leaves the CPUs idle between
// request and response, and its rate then follows how fast the shared
// host wakes them rather than the server's speed.
var workloads = []*workload{
	{
		name: "edit-play", conns: 2, users: 2, next: nextEditPlay, primary: classEdit,
		why: "the Play loop of two designers: every request edits, misses the read caches, appends to the journal and recomputes",
	},
	{
		name: "browse", conns: 2, users: 128, next: nextBrowse, primary: classView,
		why: "the shared read path: 384 Zipf-picked sheets overflow the 256-entry page cache; mostly plain and conditional GETs",
	},
	{
		name: "sweep", conns: 2, users: 2, next: nextSweep, primary: classSweep,
		why: "design-space exploration by two designers: 200-step sweeps through the explore runner and sweep cache, no journal writes",
	},
	{
		name: "routed", conns: 2, users: 32, routed: true, next: nextBrowse, primary: classView,
		why: "the browse mix through -mode router over two shard backends; browse is its no-router control",
		notes: "InfoPad copies owned by the backend that does not seed user demo fail to evaluate " +
			"(no model named \"macro.luminance\"): cmd/powerplay registers the luminance macro only " +
			"on the path that seeds demo, so those views and plays count as failures",
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

type opKind int

const (
	opView opKind = iota
	opCondView
	opPlay
	opRows
	opSweep
)

func (k opKind) String() string {
	return [...]string{"view", "cond_view", "play", "rows", "sweep"}[k]
}

// opClass groups operation kinds the way latencies are reported.
type opClass int

const (
	classView opClass = iota
	classEdit
	classSweep
)

func (c opClass) String() string { return [...]string{"view", "edit", "sweep"}[c] }

func (k opKind) class() opClass {
	switch k {
	case opPlay, opRows:
		return classEdit
	case opSweep:
		return classSweep
	}
	return classView
}

// edit is one cell of the Play form: a field name (glob_<var> or
// row_<path>|<param>) and the source text typed into it.
type edit struct{ field, value string }

// sweepSpec is one exploration request.
type sweepSpec struct {
	design, variable, from, to string
	steps                      int
}

// op is one request a connection sends.
type op struct {
	kind  opKind
	sheet int // index into the population's sheets
	edits []edit
	// rows: add (true) or remove (false) the row named row.
	add        bool
	row, model string
	sweep      sweepSpec
	// check marks a view whose page is compared number by number with
	// the shadow evaluation (edits and sweeps are always compared).
	check bool
}

// sheetRef names one design spreadsheet of the population.
type sheetRef struct {
	user, design string
}

// designs are the three sheets cmd/powerplay -seed installs.
var designs = []string{"Luminance_1", "Luminance_2", "InfoPad"}

// population lists every sheet the workload touches, each user's three
// sheets adjacent.
func population(w *workload) []sheetRef {
	var out []sheetRef
	for u := 0; u < w.users; u++ {
		for _, d := range designs {
			out = append(out, sheetRef{user: fmt.Sprintf("u%03d", u), design: d})
		}
	}
	return out
}

// owner is the connection that sends every request for sheet i: the
// users are dealt out to the connections, so each connection owns its
// sheets and the shadow state needs no cross-connection ordering.
func owner(w *workload, i int) int { return (i / len(designs)) % w.conns }

// cell is one editable Play-form field with the values a designer
// types into it.  Every value lies inside the model's parameter range,
// so no combination of them fails to evaluate.
type cell struct {
	field  string
	values []string
}

var editCells = map[string][]cell{
	"InfoPad": {
		{"glob_vdd1", []string{"1.2", "1.35", "1.5", "1.65", "1.8"}},
		{"glob_vdd2", []string{"3", "3.3", "3.6"}},
		{"glob_vdd3", []string{"4.5", "5", "5.5"}},
		{"glob_fclk", []string{"16MHz", "20MHz", "24MHz", "33MHz"}},
		{"row_custom_hardware/chrominance_u|pnom", []string{"0.002", "0.003", "0.004"}},
		{"row_custom_hardware/video_controller|pnom", []string{"0.01", "0.012", "0.014"}},
		{"row_display_lcds|pnom", []string{"0.4", "0.445", "0.5"}},
		{"row_radio_subsystem/transmitter|pnom", []string{"0.12", "0.15", "0.18"}},
		{"row_uP_subsystem/cpu|act", []string{"0.8", "0.9", "0.95", "1"}},
		{"row_uP_subsystem/dram|bits", []string{"8", "16", "32"}},
		{"row_voltage_converters|eta", []string{"0.75", "0.8", "0.85", "0.9"}},
		{"row_support_electronics|pnom", []string{"0.06", "0.075", "0.09"}},
	},
	"Luminance_2": {
		{"glob_vdd", []string{"1.1", "1.3", "1.5", "2", "2.5", "3.3"}},
		{"glob_f", []string{"1MHz", "2MHz", "3MHz", "4MHz"}},
		{"row_read_bank|words", []string{"1024", "2048", "4096"}},
		{"row_look_up_table|bits", []string{"16", "24", "32"}},
		{"row_look_up_table|words", []string{"512", "1024", "2048"}},
		{"row_output_mux|inputs", []string{"2", "4", "8"}},
		{"row_word_latch|bits", []string{"16", "24", "32"}},
	},
	"Luminance_1": {
		{"glob_vdd", []string{"1.1", "1.5", "2", "3.3"}},
		{"glob_f", []string{"1MHz", "2MHz", "4MHz"}},
		{"row_look_up_table|words", []string{"2048", "4096", "8192"}},
		{"row_read_bank|bits", []string{"6", "8", "10"}},
		{"row_output_buffer|bits", []string{"4", "6", "8"}},
	},
}

// rowModels are the library cells an added row instantiates with their
// default parameters.
var rowModels = []string{"commodity.fixed", "ucb.reg", "ucb.pad"}

// sweepRange is one row of the exploration range table: a variable of
// a seeded design and the interval sweeps may cover.  Set-up sweeps
// each row's end points before the measured window.
type sweepRange struct {
	design, variable string
	lo, hi           float64
}

var sweepRanges = []sweepRange{
	{"Luminance_1", "vdd", 1.0, 3.3},
	{"Luminance_1", "f", 0.5e6, 8e6},
	{"Luminance_2", "vdd", 1.0, 3.3},
	{"Luminance_2", "f", 0.5e6, 8e6},
	{"InfoPad", "vdd1", 1.0, 3.3},
	{"InfoPad", "vdd3", 3.3, 6},
	{"InfoPad", "fclk", 5e6, 40e6},
}

// sweepSteps is the UI's maximum step count.
const sweepSteps = 200

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) pick(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// zipfExponent shapes browse popularity: with 384 sheets the hottest
// 256 (the page cache's default capacity) draw about 93% of requests,
// so the hot set fits the cache and the tail keeps evicting.
const zipfExponent = 1.0

// stream is one connection's deterministic operation sequence: the
// same (workload, seed, connection) always yields the same ops.
type stream struct {
	w      *workload
	rng    *rand.Rand
	sheets []int // population indices this connection owns, in popularity order
	pop    []sheetRef
	zipf   *zipf
	n      int // ops drawn so far
	// rowLive holds, per sheet, the name of the row the last rows op
	// added and has not removed yet.
	rowLive map[int]string
	rowSeq  int
	sweeps  []sweepSpec // history for exact repeats
}

func newStream(w *workload, pop []sheetRef, seed int64, conn int) *stream {
	g := &stream{
		w:       w,
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 1)),
		pop:     pop,
		rowLive: map[int]string{},
	}
	for i := range pop {
		if owner(w, i) == conn {
			g.sheets = append(g.sheets, i)
		}
	}
	// Popularity order: a seeded shuffle of whole users, each user's
	// three sheets adjacent, so every seed gives each design about the
	// same share of requests and seeds differ only in which copies are
	// hot.
	n := len(designs)
	users := len(g.sheets) / n
	order := g.rng.Perm(users)
	sheets := make([]int, 0, len(g.sheets))
	for rank, u := range order {
		for k := 0; k < n; k++ {
			sheets = append(sheets, g.sheets[u*n+(k+rank)%n])
		}
	}
	sheets = append(sheets, g.sheets[users*n:]...)
	g.sheets = sheets
	g.zipf = newZipf(len(g.sheets), zipfExponent)
	return g
}

func (g *stream) next() op {
	o := g.w.next(g)
	g.n++
	return o
}

// sheetOf returns this connection's sheet holding the named design,
// for workloads whose connections each own one user.
func (g *stream) sheetOf(design string) int {
	for _, i := range g.sheets {
		if g.pop[i].design == design {
			return i
		}
	}
	panic("perfbench: connection owns no sheet " + design)
}

// play draws a Play with one to three distinct cell edits.
func (g *stream) play(sheet int) op {
	cells := editCells[g.pop[sheet].design]
	n := 1 + g.rng.Intn(3)
	o := op{kind: opPlay, sheet: sheet}
	for _, ci := range g.rng.Perm(len(cells))[:n] {
		c := cells[ci]
		o.edits = append(o.edits, edit{field: c.field, value: c.values[g.rng.Intn(len(c.values))]})
	}
	return o
}

// rows adds a row to the sheet, or removes the one added before.
func (g *stream) rows(sheet int) op {
	if name, ok := g.rowLive[sheet]; ok {
		delete(g.rowLive, sheet)
		return op{kind: opRows, sheet: sheet, row: name}
	}
	g.rowSeq++
	name := fmt.Sprintf("bench_row%d", g.rowSeq)
	g.rowLive[sheet] = name
	return op{kind: opRows, sheet: sheet, add: true, row: name, model: rowModels[g.rng.Intn(len(rowModels))]}
}

// nextEditPlay: 15 of every 16 requests are a Play, alternating
// between InfoPad and Luminance_2; the 16th adds or removes a row,
// forcing a plan compile.  The designs alternate rather than being
// drawn, so every seed gives both the same share of the work.
func nextEditPlay(g *stream) op {
	if g.n%16 == 15 {
		return g.rows(g.sheetOf(editDesigns[(g.n/16)%2]))
	}
	return g.play(g.sheetOf(editDesigns[g.n%2]))
}

// editDesigns are the sheets edit-play alternates between.
var editDesigns = [2]string{"InfoPad", "Luminance_2"}

// nextBrowse: Zipf-picked sheets; about 60% plain GET, 35% conditional
// GET and 5% Play by the sheet's owner.  Every view is checked for an
// evaluation error and a stale 304; one in viewCheckEvery is also
// compared number by number with the shadow evaluation, which keeps
// the generator's share of the two CPUs small.
func nextBrowse(g *stream) op {
	sheet := g.sheets[g.zipf.pick(g.rng)]
	r := g.rng.Float64()
	switch {
	case r < 0.60:
		return op{kind: opView, sheet: sheet, check: g.rng.Intn(viewCheckEvery) == 0}
	case r < 0.95:
		return op{kind: opCondView, sheet: sheet, check: g.rng.Intn(viewCheckEvery) == 0}
	}
	return g.play(sheet)
}

const viewCheckEvery = 8

// nextSweep: 200-step sweeps over ranges drawn from the table rows in
// turn; every fourth sweep repeats an earlier one exactly.
func nextSweep(g *stream) op {
	var s sweepSpec
	if g.n%4 == 3 && len(g.sweeps) > 0 {
		s = g.sweeps[g.rng.Intn(len(g.sweeps))]
	} else {
		s = drawSweep(g.rng, sweepRanges[len(g.sweeps)%len(sweepRanges)])
		g.sweeps = append(g.sweeps, s)
	}
	return op{kind: opSweep, sheet: g.sheetOf(s.design), sweep: s}
}

// drawSweep picks a sub-range of r: from in the lower half, to at
// least a quarter of the way from there to hi.  Both ends are written
// with four significant digits, as a designer types them.
func drawSweep(rng *rand.Rand, r sweepRange) sweepSpec {
	from := r.lo + (r.hi-r.lo)*0.5*rng.Float64()
	to := from + (r.hi-from)*(0.25+0.75*rng.Float64())
	return sweepSpec{
		design: r.design, variable: r.variable,
		from:  strconv.FormatFloat(from, 'g', 4, 64),
		to:    strconv.FormatFloat(to, 'g', 4, 64),
		steps: sweepSteps,
	}
}
