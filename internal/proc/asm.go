package proc

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is an assembled instruction sequence.
type Program struct {
	// Instrs is the instruction memory.
	Instrs []Instr
	// Labels maps label name → instruction index.
	Labels map[string]int
}

// AsmError reports an assembly failure with its source line number.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// Assemble translates assembly text into a Program.
//
// Syntax: one instruction per line; "label:" prefixes; ";" or "#" start
// comments; registers are r0..r15; immediates are decimal or 0x hex;
// memory operands are imm(rN); branch/jump/call targets are labels.
// A two-pass assembler resolves forward references.
func Assemble(src string) (*Program, error) {
	type pending struct {
		line  int
		index int
		label string
	}
	p := &Program{Labels: make(map[string]int)}
	var fixups []pending

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		lineNo := ln + 1
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Labels (possibly several, possibly followed by an instruction).
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if !validLabel(label) {
				return nil, &AsmError{lineNo, fmt.Sprintf("invalid label %q", label)}
			}
			if _, dup := p.Labels[label]; dup {
				return nil, &AsmError{lineNo, fmt.Sprintf("duplicate label %q", label)}
			}
			p.Labels[label] = len(p.Instrs)
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		mnemonic := strings.ToLower(fields[0])
		op, ok := opNames[mnemonic]
		if !ok {
			return nil, &AsmError{lineNo, fmt.Sprintf("unknown mnemonic %q", mnemonic)}
		}
		args := parseArgs(strings.TrimSpace(line[len(fields[0]):]))
		ins, labelRef, err := encode(op, args)
		if err != nil {
			return nil, &AsmError{lineNo, err.Error()}
		}
		if labelRef != "" {
			fixups = append(fixups, pending{lineNo, len(p.Instrs), labelRef})
		}
		p.Instrs = append(p.Instrs, ins)
	}
	for _, f := range fixups {
		target, ok := p.Labels[f.label]
		if !ok {
			return nil, &AsmError{f.line, fmt.Sprintf("undefined label %q", f.label)}
		}
		p.Instrs[f.index].Imm = int64(target)
	}
	return p, nil
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			i > 0 && r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	_, isReg := parseReg(s)
	return !isReg
}

func parseArgs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(s string) (int, bool) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, false
	}
	return n, true
}

func parseImm(s string) (int64, bool) {
	v, err := strconv.ParseInt(s, 0, 64)
	return v, err == nil
}

// parseMem parses "imm(rN)" or "(rN)".
func parseMem(s string) (imm int64, reg int, ok bool) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, false
	}
	immPart := strings.TrimSpace(s[:open])
	regPart := strings.TrimSpace(s[open+1 : len(s)-1])
	if immPart != "" {
		v, ok := parseImm(immPart)
		if !ok {
			return 0, 0, false
		}
		imm = v
	}
	r, ok := parseReg(regPart)
	if !ok {
		return 0, 0, false
	}
	return imm, r, true
}

// encode builds the Instr for an opcode and its textual arguments; a
// non-empty labelRef asks the caller to patch Imm in pass two.
func encode(op Op, args []string) (ins Instr, labelRef string, err error) {
	ins.Op = op
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d operand(s), got %d", op.Name(), n, len(args))
		}
		return nil
	}
	reg := func(s string) (int, error) {
		r, ok := parseReg(s)
		if !ok {
			return 0, fmt.Errorf("%s: bad register %q", op.Name(), s)
		}
		return r, nil
	}
	switch op {
	case OpNop, OpHalt, OpRet:
		err = need(0)
	case OpLi:
		if err = need(2); err != nil {
			return
		}
		if ins.Rd, err = reg(args[0]); err != nil {
			return
		}
		imm, ok := parseImm(args[1])
		if !ok {
			err = fmt.Errorf("li: bad immediate %q", args[1])
			return
		}
		ins.Imm = imm
	case OpMov:
		if err = need(2); err != nil {
			return
		}
		if ins.Rd, err = reg(args[0]); err != nil {
			return
		}
		ins.Ra, err = reg(args[1])
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpDiv:
		if err = need(3); err != nil {
			return
		}
		if ins.Rd, err = reg(args[0]); err != nil {
			return
		}
		if ins.Ra, err = reg(args[1]); err != nil {
			return
		}
		ins.Rb, err = reg(args[2])
	case OpAddi, OpShli, OpShri:
		if err = need(3); err != nil {
			return
		}
		if ins.Rd, err = reg(args[0]); err != nil {
			return
		}
		if ins.Ra, err = reg(args[1]); err != nil {
			return
		}
		imm, ok := parseImm(args[2])
		if !ok {
			err = fmt.Errorf("%s: bad immediate %q", op.Name(), args[2])
			return
		}
		ins.Imm = imm
	case OpLd, OpSt:
		if err = need(2); err != nil {
			return
		}
		var r int
		if r, err = reg(args[0]); err != nil {
			return
		}
		if op == OpLd {
			ins.Rd = r
		} else {
			ins.Ra = r // value register for stores lives in Ra...
		}
		imm, base, ok := parseMem(args[1])
		if !ok {
			err = fmt.Errorf("%s: bad memory operand %q", op.Name(), args[1])
			return
		}
		ins.Imm = imm
		if op == OpLd {
			ins.Ra = base
		} else {
			ins.Rb = base // ...and the base register in Rb.
		}
	case OpBeq, OpBne, OpBlt, OpBge:
		if err = need(3); err != nil {
			return
		}
		if ins.Ra, err = reg(args[0]); err != nil {
			return
		}
		if ins.Rb, err = reg(args[1]); err != nil {
			return
		}
		labelRef = args[2]
	case OpJmp, OpCall:
		if err = need(1); err != nil {
			return
		}
		labelRef = args[0]
	case OpPush:
		if err = need(1); err != nil {
			return
		}
		ins.Ra, err = reg(args[0])
	case OpPop:
		if err = need(1); err != nil {
			return
		}
		ins.Rd, err = reg(args[0])
	default:
		err = fmt.Errorf("unhandled opcode %v", op)
	}
	return
}
