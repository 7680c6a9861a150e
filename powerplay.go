// Package powerplay is a from-scratch reproduction of PowerPlay, the
// early design-phase power exploration framework of Lidsky and Rabaey
// ("Early Power Exploration — A World Wide Web Application", DAC 1996).
//
// PowerPlay estimates the power, area and timing of a system before any
// compilable description exists, purely by manipulating parameterized
// models of functional blocks.  Every model maps its parameters (bit
// widths, memory organization, bias currents, efficiencies…) onto the
// EQ 1 template
//
//	P = Σᵢ Csw,ᵢ·Vswing,ᵢ·VDD·fᵢ + I·VDD
//
// and is scalable with supply voltage and technology.  Designs are
// hierarchical spreadsheets whose cells may be expressions over design
// variables and over other modules' computed results; whole sheets lump
// into reusable macro models; and a web application makes the library,
// the forms and the sheets universally accessible, including an HTTP
// protocol for sharing model libraries between sites.
//
// This package is the public facade: it re-exports the core types and
// the entry points a downstream user needs.  The implementation lives
// in the internal packages (see DESIGN.md for the full inventory).
//
// Quick start:
//
//	reg := powerplay.StandardLibrary()
//	d := powerplay.NewDesign("demo", reg)
//	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
//	d.Root.SetGlobalValue("f", 2e6, "2MHz")
//	row := d.Root.MustAddChild("mult", powerplay.ArrayMultiplier)
//	_ = row.SetParam("bwA", "8")
//	_ = row.SetParam("bwB", "8")
//	res, err := d.Evaluate()
//	// res.Power == 64 × 253 fF × 1.5² × 2 MHz
package powerplay

import (
	"context"
	"io"

	"powerplay/internal/activity"
	"powerplay/internal/cachesim"
	"powerplay/internal/core/explore"
	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/proc"
	"powerplay/internal/units"
	"powerplay/internal/vqsim"
	"powerplay/internal/web"
)

// Core model types.
type (
	// Model is a parameterized power/area/delay model.
	Model = model.Model
	// Registry is a model namespace (a library).
	Registry = model.Registry
	// Params is a parameter valuation.
	Params = model.Params
	// Param describes one model parameter.
	Param = model.Param
	// Estimate is an evaluated EQ 1 estimate.
	Estimate = model.Estimate
	// Info describes a model for menus and documentation.
	Info = model.Info
	// Class is a component class.
	Class = model.Class
)

// Spreadsheet types.
type (
	// Design is a hierarchical design sheet.
	Design = sheet.Design
	// Node is one row (possibly a subtree) of a sheet.
	Node = sheet.Node
	// Result is an evaluated row.
	Result = sheet.Result
	// Macro is a design lumped into a reusable model.
	Macro = sheet.Macro
	// Incremental is a design's incremental Play engine: it re-executes
	// only the dirty cone an edit reaches, bit-identically to a full
	// evaluation.
	Incremental = sheet.Incremental
	// PlayDelta reports how much one incremental Play recomputed:
	// whether it ran from scratch, and the steps and slots it re-ran.
	PlayDelta = sheet.PlayDelta
)

// Web application types.
type (
	// Server is one PowerPlay web site.
	Server = web.Server
	// ServerConfig parameterizes a site.
	ServerConfig = web.Config
	// Remote is a client for another site's model API.  It always
	// retries, circuit-breaks and degrades to cached estimates; see
	// DESIGN.md's "Resilience" section.
	Remote = web.Remote
)

// ErrRemoteUnavailable is the typed error behind every remote failure
// that means "the publishing site cannot be reached": match it with
// errors.Is to tell a dead site from a rejected request.
var ErrRemoteUnavailable = web.ErrRemoteUnavailable

// Standard library cell names.
const (
	RippleAdder     = library.RippleAdder
	CLAAdder        = library.CLAAdder
	SvenssonAdder   = library.SvenssonAdder
	ArrayMultiplier = library.ArrayMultiplier
	LogShifter      = library.LogShifter
	Mux             = library.Mux
	Register        = library.Register
	SRAM            = library.SRAM
	LowSwingSRAM    = library.LowSwingSRAM
	DRAM            = library.DRAM
	PadBuffer       = library.PadBuffer
	ClockBuffer     = library.ClockBuffer
	RandomCtrl      = library.RandomCtrl
	ROMCtrl         = library.ROMCtrl
	PLACtrl         = library.PLACtrl
	Wire            = library.Wire
	AnalogBias      = library.AnalogBias
	AnalogOTA       = library.AnalogOTA
	DCDC            = library.DCDC
	GenericCPU      = library.GenericCPU
	FixedPart       = library.FixedPart
)

// StandardLibrary builds the built-in characterized library: the UCB
// low-power cells (EQ 2–10, EQ 20), interconnect, analog, converter,
// processor and commodity models.
func StandardLibrary() *Registry { return library.Standard() }

// NewDesign creates an empty design sheet over a library.
func NewDesign(name string, reg *Registry) *Design {
	return sheet.NewDesign(name, reg)
}

// ParseDesign loads a design sheet from its JSON form.
func ParseDesign(data []byte, reg *Registry) (*Design, error) {
	return sheet.ParseDesign(data, reg)
}

// ParseDeck loads a design sheet from the hand-writable deck format.
func ParseDeck(src string, reg *Registry) (*Design, error) {
	return sheet.ParseDeck(src, reg)
}

// FormatDeck serializes a design in deck form.
func FormatDeck(d *Design) string { return sheet.FormatDeck(d) }

// NewMacro lumps a design into a reusable library model.  Its
// parameters are the design's constant root globals, with the values
// they hold when NewMacro is called; the list is fixed then, so later
// edits to the design's globals do not change it.
func NewMacro(name, title, doc string, d *Design) (*Macro, error) {
	return sheet.NewMacro(name, title, doc, d)
}

// Report writes the text spreadsheet view of an evaluated design.
func Report(w io.Writer, d *Design, r *Result) { sheet.Report(w, d, r) }

// Evaluate validates parameters against a model's schema and runs it.
func Evaluate(m Model, p Params) (*Estimate, error) { return model.Evaluate(m, p) }

// NewServer builds a PowerPlay web site over a registry.
func NewServer(cfg ServerConfig, reg *Registry) (*Server, error) {
	return web.NewServer(cfg, reg)
}

// MountRemote registers every model of a remote site into reg under
// prefix+"." — the Figure 6–7 library-sharing protocol.  The mount is
// atomic: on any failure the registry is left exactly as it was.
func MountRemote(reg *Registry, rc *Remote, prefix string) (int, error) {
	return web.Mount(reg, rc, prefix)
}

// RefreshRemote re-syncs a mounted prefix with its remote site: new
// models appear, unpublished ones are unmounted, and any failure leaves
// the existing mount untouched.
func RefreshRemote(ctx context.Context, reg *Registry, rc *Remote, prefix string) (int, error) {
	return web.Refresh(ctx, reg, rc, prefix)
}

// Luminance1 builds the paper's Figure 1 video decompression sheet.
func Luminance1(reg *Registry) (*Design, error) { return vqsim.Luminance1(reg) }

// Luminance2 builds the paper's Figure 3 alternative architecture.
func Luminance2(reg *Registry) (*Design, error) { return vqsim.Luminance2(reg) }

// InfoPad builds the paper's Figure 5 system sheet (registering the
// luminance macro into reg as a side effect).
func InfoPad(reg *Registry) (*Design, error) { return infopad.Build(reg) }

// Instruction-level processor modeling (EQ 11–12 and the fictitious
// processor substrate).
type (
	// EnergyTable is a per-instruction-class energy characterization.
	EnergyTable = proc.EnergyTable
	// SortEnergy is one row of the sorting-energy study.
	SortEnergy = proc.SortEnergy
	// CacheConfig describes the Dinero-style data cache used to refine
	// instruction-level estimates.
	CacheConfig = cachesim.Config
)

// DefaultEnergyTable returns the built-in 3.3 V characterization of the
// fictitious processor.
func DefaultEnergyTable() *EnergyTable { return proc.DefaultEnergyTable() }

// MeasureSorts runs the built-in sorting programs (bubble, insertion,
// shellsort, quicksort) on the fictitious processor over a copy of
// data, through a simulated data cache, and prices each run with EQ 12
// — the Ong/Yan study the paper cites.
func MeasureSorts(data []int64, table *EnergyTable, cache CacheConfig) ([]SortEnergy, error) {
	return proc.MeasureSorts(data, table, cache)
}

// Design-space exploration helpers.
type (
	// ExplorePoint is one evaluated point of a sweep.
	ExplorePoint = explore.Point
	// ExploreRunner is the exploration engine: it prices sweep points
	// in chunks on the caller's goroutine, each chunk columnar when
	// the sheet allows.  See explore.Runner for the full concurrency
	// contract.
	ExploreRunner = explore.Runner
	// ExploreCache memoizes evaluated points by override vector; see
	// explore.Cache for the validity rules.
	ExploreCache = explore.Cache
	// SupplySavings reports a voltage-scaling result.
	SupplySavings = explore.SupplySavings
	// SignalStats is a word-level signal description for the
	// dual-bit-type activity model.
	SignalStats = activity.Stats
	// AdviceRow ranks one power consumer of an evaluated sheet.
	AdviceRow = sheet.AdviceRow
	// TimingRow is one row of a timing report.
	TimingRow = sheet.TimingRow
)

// DefaultChunkSize is the sweep chunk size a zero
// ExploreRunner.ChunkSize selects: the unit of columnar evaluation.
const DefaultChunkSize = explore.DefaultChunkSize

// NewExploreCache returns an evaluation cache for exploration runs;
// limit <= 0 selects the default size.  A cache is valid for a single
// design snapshot — drop it when the design is edited.
func NewExploreCache(limit int) *ExploreCache { return explore.NewCache(limit) }

// Sweep evaluates the design across values of one variable on the
// caller's goroutine, with results in input order.  The context
// cancels or bounds the run; use an ExploreRunner to set the chunk
// size or attach an ExploreCache.
func Sweep(ctx context.Context, d *Design, name string, values []float64) ([]ExplorePoint, error) {
	return explore.Sweep(ctx, d, name, values)
}

// Sweep2D evaluates the cross product of two variables, row-major in
// the first, with the same ordering and cancellation semantics as
// Sweep.
func Sweep2D(ctx context.Context, d *Design, n1 string, v1 []float64, n2 string, v2 []float64) ([]ExplorePoint, error) {
	return explore.Sweep2D(ctx, d, n1, v1, n2, v2)
}

// Pareto extracts the power/delay non-dominated subset of a sweep.
func Pareto(points []ExplorePoint) []ExplorePoint { return explore.Pareto(points) }

// Linspace returns n evenly spaced values across [lo, hi].
func Linspace(lo, hi float64, n int) []float64 { return explore.Linspace(lo, hi, n) }

// MinSupply finds the lowest supply at which the design still meets a
// clock target.  The context cancels or bounds the search.
func MinSupply(ctx context.Context, d *Design, fTarget, lo, hi float64) (float64, error) {
	return explore.MinSupply(ctx, d, fTarget, lo, hi)
}

// VoltageScale compares running at the minimum frequency-meeting
// supply against a nominal supply.  The context cancels or bounds the
// underlying search.
func VoltageScale(ctx context.Context, d *Design, fTarget, lo, nominal float64) (SupplySavings, error) {
	return explore.VoltageScale(ctx, d, fTarget, lo, nominal)
}

// Advice ranks every model row of an evaluated design by power.
func Advice(r *Result) []AdviceRow { return sheet.Advice(r) }

// ArchPoint is one architecture's operating point in the
// parallelism-vs-voltage study.
type ArchPoint = vqsim.ArchPoint

// MACDesign builds an n-lane multiply-accumulate datapath sheet at a
// total sample rate.
func MACDesign(reg *Registry, lanes int, sampleRate float64) (*Design, error) {
	return vqsim.MACDesign(reg, lanes, sampleRate)
}

// ArchScale runs the architecture-driven voltage scaling study: for
// each parallelism degree, the minimum supply meeting the per-lane
// clock and the resulting power and area.
func ArchScale(ctx context.Context, reg *Registry, sampleRate float64, lanes []int) ([]ArchPoint, error) {
	return vqsim.ArchScale(ctx, reg, sampleRate, lanes)
}

// TimingReport checks every model row against a clock target in hertz.
func TimingReport(r *Result, fTarget float64) ([]TimingRow, error) {
	return sheet.TimingReport(r, units.Hertz(fTarget))
}
