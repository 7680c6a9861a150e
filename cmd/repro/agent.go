package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"powerplay/internal/agent"
	"powerplay/internal/core/model"
	sheetpkg "powerplay/internal/core/sheet"
	"powerplay/internal/library"
	"powerplay/internal/units"
)

// adderNodeCap is the lumped capacitance of one full-adder node (an
// operand input, the sum or the carry) in the simulated netlist.
const adderNodeCap = 45 * units.FemtoFarad

func runAgent() error { return agentFlows(os.Stdout) }

// agentFlows runs the Design Agent (ref [1]): one ripple-carry adder
// priced by two tool flows instead of an equation in the sheet.  The
// characterized EQ 2-3 equation is cheap but registered for the
// standard-cell context only; a netlist generator followed by a
// switch-level simulation costs more and applies in any context.  The
// agent picks the cheapest flow each context allows, and caches the
// flow's product per parameter point.
func agentFlows(w io.Writer) error {
	reg := library.Standard()
	runs := 0
	a := agent.New()
	a.MustRegister(&agent.Tool{
		Name: "equation", Doc: "the characterized EQ 2-3 ripple-adder cell",
		Inputs: []string{"params"}, Outputs: []string{agent.EstimateKind},
		Contexts: []string{"stdcell"}, Cost: 1,
		Run: func(data map[string]any) (map[string]any, error) {
			runs++
			p, err := agent.ParamsFrom(data)
			if err != nil {
				return nil, err
			}
			est, err := reg.Evaluate(library.RippleAdder, model.Params{
				"bits": p["bits"], model.ParamVDD: p[model.ParamVDD], model.ParamFreq: p[model.ParamFreq],
			})
			return map[string]any{agent.EstimateKind: est}, err
		},
	})
	a.MustRegister(&agent.Tool{
		Name: "netlist", Doc: "a ripple-carry netlist: one full-adder cell per bit",
		Inputs: []string{"params"}, Outputs: []string{"netlist"}, Cost: 5,
		Run: func(data map[string]any) (map[string]any, error) {
			runs++
			p, err := agent.ParamsFrom(data)
			return map[string]any{"netlist": int(p["bits"])}, err
		},
	})
	a.MustRegister(&agent.Tool{
		Name: "simulate", Doc: "switch-level simulation of the netlist over random operands",
		Inputs: []string{"params", "netlist"}, Outputs: []string{agent.EstimateKind}, Cost: 50,
		Run: func(data map[string]any) (map[string]any, error) {
			runs++
			p, err := agent.ParamsFrom(data)
			if err != nil {
				return nil, err
			}
			est := &model.Estimate{VDD: p.VDD()}
			rises := adderRises(data["netlist"].(int), 1024)
			est.AddCap("simulated node rises", units.Farads(rises*float64(adderNodeCap)), p.Freq())
			return map[string]any{agent.EstimateKind: est}, nil
		},
	})
	contexts := []string{"stdcell", "custom"}
	for _, ctx := range contexts {
		reg.MustRegister(&agent.ToolModel{
			Meta: model.Info{
				Name: "agent.adder." + ctx, Title: "Ripple-carry adder (" + ctx + " flow)",
				Class: model.Computation, Doc: "priced by the Design Agent's tool flow",
				Params: model.WithStd(model.Param{Name: "bits", Doc: "adder width", Default: 16, Min: 1, Max: 64, Integer: true}),
			},
			Agent: a, Context: ctx,
		})
	}

	d := sheetpkg.NewDesign("agent", reg)
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 2e6, "2MHz")
	for _, ctx := range contexts {
		if err := d.Root.MustAddChild(ctx, "agent.adder."+ctx).SetParam("bits", "16"); err != nil {
			return err
		}
	}
	r, err := d.Evaluate()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "registered tools: %s\n", strings.Join(a.Tools(), ", "))
	fmt.Fprintf(w, "%-8s %-20s %14s\n", "context", "tool chain", "16-bit adder")
	for _, ctx := range contexts {
		plan, err := a.Plan(agent.EstimateKind, []string{"params"}, ctx)
		if err != nil {
			return err
		}
		names := make([]string, len(plan))
		for i, t := range plan {
			names[i] = t.Name
		}
		fmt.Fprintf(w, "%-8s %-20s %14s\n", ctx, strings.Join(names, " → "), r.Find(ctx).Power)
	}
	fmt.Fprintf(w, "tool runs to price the sheet: %d\n", runs)

	point := model.Params{"bits": 16, model.ParamVDD: 1.5, model.ParamFreq: 2e6}
	before := runs
	if _, err := reg.Evaluate("agent.adder.custom", point); err != nil {
		return err
	}
	fmt.Fprintf(w, "the custom row's point again: %d tool runs (flow cache hit)\n", runs-before)
	point["bits"] = 32
	before = runs
	if _, err := reg.Evaluate("agent.adder.custom", point); err != nil {
		return err
	}
	fmt.Fprintf(w, "a new point, 32 bits:        %d tool runs\n", runs-before)
	return nil
}

// adderRises simulates a bits-wide ripple-carry adder, without
// glitches, over vectors random operand pairs and returns the mean
// number of nodes (operand inputs, sums and carries) that rise per
// operation: each rise draws C·VDD² from the supply.
func adderRises(bits, vectors int) float64 {
	rng := rand.New(rand.NewSource(1996))
	var prev, nodes []bool
	rises := 0
	for v := 0; v < vectors; v++ {
		x, y := rng.Uint64(), rng.Uint64()
		nodes = nodes[:0]
		carry := false
		for i := 0; i < bits; i++ {
			xi, yi := x>>i&1 == 1, y>>i&1 == 1
			nodes = append(nodes, xi, yi, xi != yi != carry)
			carry = xi && yi || carry && xi != yi
			nodes = append(nodes, carry)
		}
		for i := range prev {
			if !prev[i] && nodes[i] {
				rises++
			}
		}
		prev = append(prev[:0], nodes...)
	}
	return float64(rises) / float64(vectors-1)
}
