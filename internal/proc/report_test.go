package proc

import (
	"strings"
	"testing"
)

func TestProfileReport(t *testing.T) {
	prof, _, err := RunSort(QuickSortSrc, []int64{5, 2, 9, 1, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	prof.Report(&b, DefaultEnergyTable())
	out := b.String()
	for _, want := range []string{
		"instructions executed:", "memory reads", "taken branches",
		"alu", "load", "store", "E-share", "hot opcodes:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Without a table the energy columns are absent.
	var b2 strings.Builder
	prof.Report(&b2, nil)
	if strings.Contains(b2.String(), "E-share") {
		t.Error("nil table should omit energy columns")
	}
}

func TestDisassemble(t *testing.T) {
	prog := mustAssemble(`
start:  li   r1, 3
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        call sub
        jmp  end
sub:    ret
end:    halt
`)
	var b strings.Builder
	prog.Disassemble(&b)
	out := b.String()
	for _, want := range []string{
		"start:", "loop:", "sub:", "end:",
		"bne r1, r0, loop", "call sub", "jmp end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	// The listing re-assembles to the same program.
	reasm, err := Assemble(stripIndices(out))
	if err != nil {
		t.Fatalf("re-assemble: %v\n%s", err, out)
	}
	if len(reasm.Instrs) != len(prog.Instrs) {
		t.Fatalf("length changed: %d vs %d", len(reasm.Instrs), len(prog.Instrs))
	}
	for i := range reasm.Instrs {
		if reasm.Instrs[i] != prog.Instrs[i] {
			t.Errorf("instr %d: %v vs %v", i, reasm.Instrs[i], prog.Instrs[i])
		}
	}
}

// stripIndices removes the leading instruction indices so the listing
// becomes valid assembler input again.
func stripIndices(listing string) string {
	var b strings.Builder
	for _, line := range strings.Split(listing, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasSuffix(trimmed, ":") {
			b.WriteString(trimmed + "\n")
			continue
		}
		fields := strings.SplitN(trimmed, " ", 2)
		if len(fields) == 2 {
			b.WriteString(strings.TrimSpace(fields[1]) + "\n")
		}
	}
	return b.String()
}

func TestDisassembleTrailingLabel(t *testing.T) {
	prog := mustAssemble("jmp end\nend:")
	var b strings.Builder
	prog.Disassemble(&b)
	if !strings.HasSuffix(strings.TrimSpace(b.String()), "end:") {
		t.Errorf("trailing label lost:\n%s", b.String())
	}
}
