package proc

import (
	"fmt"
)

// Profile is the instruction histogram a run produces: the Nᵢ of EQ 12.
type Profile struct {
	// ByClass counts executed instructions per energy class.
	ByClass [numClasses]uint64
	// ByOp counts executed instructions per opcode.
	ByOp map[Op]uint64
	// Total is the executed instruction count.
	Total uint64
	// TakenBranches counts taken conditional branches.
	TakenBranches uint64
	// MemReads and MemWrites count data memory traffic (including
	// stack operations).
	MemReads, MemWrites uint64
}

// TrapError reports a runtime fault in the simulated program.
type TrapError struct {
	PC  int
	Msg string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("vm: trap at pc=%d: %s", e.PC, e.Msg)
}

// MemTracer observes every data-memory access; the cachesim package's
// Cache.Access matches this signature's intent and is adapted in
// energy.go.  Addresses are word indices.
type MemTracer func(addr uint64, write bool)

// VM interprets a Program against a word-addressed data memory.
type VM struct {
	// Regs is the architectural register file.
	Regs [NumRegs]int64
	// Mem is the data memory, in 64-bit words.  The stack grows down
	// from the top.
	Mem []int64
	// SP is the stack pointer (word index one above the live top).
	SP int
	// PC is the program counter (instruction index).
	PC int
	// Tracer, when set, observes data accesses.
	Tracer MemTracer
	// MaxSteps bounds execution; 0 means the DefaultMaxSteps.
	MaxSteps uint64

	prog    *Program
	profile Profile
	halted  bool
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 200_000_000

// NewVM prepares a VM with the given data memory size in words.
func NewVM(prog *Program, memWords int) *VM {
	vm := &VM{
		Mem:  make([]int64, memWords),
		SP:   memWords,
		prog: prog,
	}
	vm.profile.ByOp = make(map[Op]uint64)
	return vm
}

// Profile returns the run's instruction histogram.
func (vm *VM) Profile() *Profile { return &vm.profile }

// Run executes until halt, a trap, or the step bound.
func (vm *VM) Run() error {
	limit := vm.MaxSteps
	if limit == 0 {
		limit = DefaultMaxSteps
	}
	for steps := uint64(0); ; steps++ {
		if steps >= limit {
			return &TrapError{vm.PC, fmt.Sprintf("step limit %d exceeded", limit)}
		}
		done, err := vm.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Step executes one instruction; it reports true after halt.
func (vm *VM) Step() (bool, error) {
	if vm.halted {
		return true, nil
	}
	if vm.PC < 0 || vm.PC >= len(vm.prog.Instrs) {
		return false, &TrapError{vm.PC, "program counter out of range"}
	}
	ins := vm.prog.Instrs[vm.PC]
	vm.profile.Total++
	vm.profile.ByClass[ClassOf(ins.Op)]++
	vm.profile.ByOp[ins.Op]++
	next := vm.PC + 1

	switch ins.Op {
	case OpNop:
	case OpHalt:
		vm.halted = true
		vm.PC = next
		return true, nil
	case OpLi:
		vm.Regs[ins.Rd] = ins.Imm
	case OpMov:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra]
	case OpAdd:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] + vm.Regs[ins.Rb]
	case OpSub:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] - vm.Regs[ins.Rb]
	case OpAnd:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] & vm.Regs[ins.Rb]
	case OpOr:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] | vm.Regs[ins.Rb]
	case OpXor:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] ^ vm.Regs[ins.Rb]
	case OpMul:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] * vm.Regs[ins.Rb]
	case OpDiv:
		if vm.Regs[ins.Rb] == 0 {
			return false, &TrapError{vm.PC, "division by zero"}
		}
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] / vm.Regs[ins.Rb]
	case OpAddi:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] + ins.Imm
	case OpShli:
		vm.Regs[ins.Rd] = vm.Regs[ins.Ra] << uint(ins.Imm&63)
	case OpShri:
		vm.Regs[ins.Rd] = int64(uint64(vm.Regs[ins.Ra]) >> uint(ins.Imm&63))
	case OpLd:
		v, err := vm.load(vm.Regs[ins.Ra] + ins.Imm)
		if err != nil {
			return false, err
		}
		vm.Regs[ins.Rd] = v
	case OpSt:
		if err := vm.store(vm.Regs[ins.Rb]+ins.Imm, vm.Regs[ins.Ra]); err != nil {
			return false, err
		}
	case OpBeq:
		if vm.Regs[ins.Ra] == vm.Regs[ins.Rb] {
			vm.profile.TakenBranches++
			next = int(ins.Imm)
		}
	case OpBne:
		if vm.Regs[ins.Ra] != vm.Regs[ins.Rb] {
			vm.profile.TakenBranches++
			next = int(ins.Imm)
		}
	case OpBlt:
		if vm.Regs[ins.Ra] < vm.Regs[ins.Rb] {
			vm.profile.TakenBranches++
			next = int(ins.Imm)
		}
	case OpBge:
		if vm.Regs[ins.Ra] >= vm.Regs[ins.Rb] {
			vm.profile.TakenBranches++
			next = int(ins.Imm)
		}
	case OpJmp:
		next = int(ins.Imm)
	case OpCall:
		if err := vm.push(int64(next)); err != nil {
			return false, err
		}
		next = int(ins.Imm)
	case OpRet:
		v, err := vm.pop()
		if err != nil {
			return false, err
		}
		next = int(v)
	case OpPush:
		if err := vm.push(vm.Regs[ins.Ra]); err != nil {
			return false, err
		}
	case OpPop:
		v, err := vm.pop()
		if err != nil {
			return false, err
		}
		vm.Regs[ins.Rd] = v
	default:
		return false, &TrapError{vm.PC, fmt.Sprintf("illegal opcode %v", ins.Op)}
	}
	vm.PC = next
	return false, nil
}

func (vm *VM) load(addr int64) (int64, error) {
	if addr < 0 || addr >= int64(len(vm.Mem)) {
		return 0, &TrapError{vm.PC, fmt.Sprintf("load address %d out of range", addr)}
	}
	vm.profile.MemReads++
	if vm.Tracer != nil {
		vm.Tracer(uint64(addr), false)
	}
	return vm.Mem[addr], nil
}

func (vm *VM) store(addr, v int64) error {
	if addr < 0 || addr >= int64(len(vm.Mem)) {
		return &TrapError{vm.PC, fmt.Sprintf("store address %d out of range", addr)}
	}
	vm.profile.MemWrites++
	if vm.Tracer != nil {
		vm.Tracer(uint64(addr), true)
	}
	vm.Mem[addr] = v
	return nil
}

func (vm *VM) push(v int64) error {
	if vm.SP <= 0 {
		return &TrapError{vm.PC, "stack overflow"}
	}
	vm.SP--
	return vm.store(int64(vm.SP), v)
}

func (vm *VM) pop() (int64, error) {
	if vm.SP >= len(vm.Mem) {
		return 0, &TrapError{vm.PC, "stack underflow"}
	}
	v, err := vm.load(int64(vm.SP))
	if err != nil {
		return 0, err
	}
	vm.SP++
	return v, nil
}
