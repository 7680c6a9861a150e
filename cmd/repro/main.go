// Command repro regenerates every quantitative artifact of the paper:
// the Figure 2 and Figure 3 spreadsheets and their comparison, the
// Figure 4 multiplier form, the Figure 5 InfoPad breakdown, the
// activity-rate derivation, the Ong/Yan sorting-energy study (ref 15),
// the voltage/frequency exploration sweeps, the Figure 6-7 remote
// model round trip, the ablations listed in DESIGN.md, and the Design
// Agent's tool flows (ref [1]).
//
// Usage:
//
//	repro            # run everything
//	repro -exp fig3  # one experiment
//	repro -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
)

type experiment struct {
	id, title string
	run       func() error
}

func experiments() []experiment {
	return []experiment{
		{"fig2", "Figure 2: Luminance_1 spreadsheet power analysis", runFig2},
		{"fig3", "Figure 3: alternate implementation and comparison", runFig3},
		{"fig4", "Figure 4: multiplier input form (EQ 20)", runFig4},
		{"fig5", "Figure 5: InfoPad system power breakdown", runFig5},
		{"rates", "Prose: VQ access-rate derivation vs. functional simulation", runRates},
		{"sorting", "Ref [15]: sorting-algorithm energy on the fictitious processor", runSorting},
		{"sweep", "Exploration: supply and frequency sweeps of the luminance sheets", runSweep},
		{"remote", "Figures 6-7: remote model access over HTTP", runRemote},
		{"ctrl", "Ablation A1: ROM vs random-logic vs PLA controllers", runCtrlAblation},
		{"memorg", "Ablation A2: memory organization at fixed capacity (EQ 7)", runMemOrg},
		{"swing", "Ablation A3: reduced-swing vs rail-to-rail memory vs VDD (EQ 8)", runSwing},
		{"rent", "Ablation A4: interconnect power vs Rent exponent (Donath)", runRent},
		{"procmodel", "Ablation A5: EQ 11 vs EQ 12 vs EQ 12 + cache simulation", runProcModel},
		{"minvdd", "Extension: voltage-scaling solver and Pareto frontier", runMinVDD},
		{"archscale", "Extension: architecture-driven voltage scaling (parallel MACs)", runArchScale},
		{"dbt", "Extension: dual-bit-type activity vs measured streams", runDBT},
		{"dcdceff", "Extension: constant vs measured converter efficiency", runDCDCEff},
		{"techscale", "Extension: technology scaling of the Figure 3 design", runTechScale},
		{"octave", "Extension: Monte-Carlo check of the within-an-octave claim", runOctave},
		{"profile", "Extension: profiler listing feeding the EQ 12 model", runProfile},
		{"protocol", "Extension: controller models in context (protocol chip)", runProtocol},
		{"agent", "Ref [1]: the Design Agent prices a row through tool flows", runAgent},
	}
}

func main() {
	expFlag := flag.String("exp", "all", "experiment id to run (see -list)")
	listFlag := flag.Bool("list", false, "list experiment ids")
	flag.Parse()
	exps := experiments()
	if *listFlag {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *expFlag != "all" && *expFlag != e.id {
			continue
		}
		fmt.Printf("==== %s — %s ====\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "repro %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
}

// randomData produces the deterministic workload shared by the sorting
// experiments.
func randomData(n int) []int64 {
	rng := rand.New(rand.NewSource(1996))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(1 << 20))
	}
	return out
}
