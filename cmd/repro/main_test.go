package main

import (
	"os"
	"strings"
	"testing"
)

// Every experiment must keep running end to end: the harness is the
// deliverable that regenerates the paper's tables.
func TestAllExperimentsRun(t *testing.T) {
	// Silence the experiment output during tests.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	for _, e := range experiments() {
		e := e
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
		})
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.id] {
			t.Errorf("duplicate id %q", e.id)
		}
		seen[e.id] = true
		if e.title == "" {
			t.Errorf("%s: empty title", e.id)
		}
	}
	if len(seen) < 13 {
		t.Errorf("only %d experiments registered", len(seen))
	}
}

// TestAgentFlows: the Design Agent picks the cheap equation where the
// context allows it and the netlist-and-simulate chain where it does
// not, and a repeated parameter point is served from the flow cache.
func TestAgentFlows(t *testing.T) {
	var b strings.Builder
	if err := agentFlows(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"registered tools: equation, netlist, simulate\n",
		"stdcell  equation ",
		"custom   netlist → simulate ",
		"tool runs to price the sheet: 3\n",
		"the custom row's point again: 0 tool runs (flow cache hit)\n",
		"a new point, 32 bits:        2 tool runs\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
