package proc

import (
	"strings"
	"testing"
)

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
; a comment
start:  li   r1, 42        # trailing comment
        addi r2, r1, -1
        ld   r3, 4(r2)
        st   r3, 0x10(r1)
        beq  r1, r2, start
        jmp  end
end:    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 7 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	if p.Labels["start"] != 0 || p.Labels["end"] != 6 {
		t.Errorf("labels = %v", p.Labels)
	}
	if p.Instrs[0].Op != OpLi || p.Instrs[0].Rd != 1 || p.Instrs[0].Imm != 42 {
		t.Errorf("li = %+v", p.Instrs[0])
	}
	if p.Instrs[1].Imm != -1 {
		t.Errorf("negative immediate = %+v", p.Instrs[1])
	}
	if ins := p.Instrs[2]; ins.Rd != 3 || ins.Ra != 2 || ins.Imm != 4 {
		t.Errorf("ld = %+v", ins)
	}
	if ins := p.Instrs[3]; ins.Ra != 3 || ins.Rb != 1 || ins.Imm != 16 {
		t.Errorf("st = %+v (hex imm, value in Ra, base in Rb)", ins)
	}
	if p.Instrs[4].Imm != 0 {
		t.Errorf("backward branch target = %+v", p.Instrs[4])
	}
	if p.Instrs[5].Imm != 6 {
		t.Errorf("forward jump target = %+v", p.Instrs[5])
	}
}

func TestAssembleLabelOnOwnLine(t *testing.T) {
	p, err := Assemble("loop:\n  jmp loop\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["loop"] != 0 || p.Instrs[0].Imm != 0 {
		t.Errorf("own-line label: %v %v", p.Labels, p.Instrs)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"frobnicate r1", "unknown mnemonic"},
		{"li r99, 1", "bad register"},
		{"li r1", "expects 2 operand"},
		{"li r1, xyz", "bad immediate"},
		{"ld r1, r2", "bad memory operand"},
		{"jmp nowhere", `undefined label "nowhere"`},
		{"dup: nop\ndup: nop", "duplicate label"},
		{"1bad: nop", "invalid label"},
		{"r1: nop", "invalid label"}, // register names can't be labels
		{"add r1, r2", "expects 3 operand"},
		{"ld r1, 4(r99)", "bad memory operand"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestAsmErrorLineNumbers(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus r1\n")
	ae, ok := err.(*AsmError)
	if !ok {
		t.Fatalf("want *AsmError, got %T", err)
	}
	if ae.Line != 3 {
		t.Errorf("line = %d, want 3", ae.Line)
	}
}

func TestInstrString(t *testing.T) {
	p := mustAssemble(`
 li r1, 5
 mov r2, r1
 add r3, r1, r2
 addi r4, r3, 7
 ld r5, 2(r4)
 st r5, 3(r4)
 beq r1, r2, zero
zero: jmp zero
 call zero
 push r1
 pop r2
 ret
 nop
 halt
`)
	wants := []string{
		"li r1, 5", "mov r2, r1", "add r3, r1, r2", "addi r4, r3, 7",
		"ld r5, 2(r4)", "st r5, 3(r4)", "beq r1, r2, 7", "jmp 7",
		"call 7", "push r1", "pop r2", "ret", "nop", "halt",
	}
	for i, want := range wants {
		if got := p.Instrs[i].String(); got != want {
			t.Errorf("Instrs[%d].String() = %q, want %q", i, got, want)
		}
	}
}

// mustAssemble is Assemble that fails loudly, for programs the tests
// write out in full.
func mustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func TestOpNameRoundTrip(t *testing.T) {
	for name, op := range opNames {
		if op.Name() != name {
			t.Errorf("Name(%v) = %q, want %q", op, op.Name(), name)
		}
	}
}

func TestClassOfCoversAllOps(t *testing.T) {
	for _, op := range opNames {
		c := ClassOf(op)
		if c < 0 || c >= numClasses {
			t.Errorf("ClassOf(%v) = %v out of range", op, c)
		}
	}
	if ClassOf(OpMul) != ClassMul || ClassOf(OpLd) != ClassLoad || ClassOf(OpSt) != ClassStore {
		t.Error("class mapping")
	}
	for c := ClassNop; c < numClasses; c++ {
		if strings.HasPrefix(c.String(), "Class(") {
			t.Errorf("class %d missing a name", c)
		}
	}
}
