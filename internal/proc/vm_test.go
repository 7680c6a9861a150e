package proc

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string, mem int, setup func(*VM)) *VM {
	t.Helper()
	vm := NewVM(mustAssemble(src), mem)
	if setup != nil {
		setup(vm)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestALUOps(t *testing.T) {
	vm := run(t, `
 li r1, 6
 li r2, 7
 add r3, r1, r2
 sub r4, r2, r1
 mul r5, r1, r2
 div r6, r2, r1
 and r7, r1, r2
 or  r8, r1, r2
 xor r9, r1, r2
 addi r10, r1, 100
 shli r11, r1, 2
 shri r12, r11, 1
 mov r13, r12
 halt
`, 16, nil)
	want := map[int]int64{3: 13, 4: 1, 5: 42, 6: 1, 7: 6, 8: 7, 9: 1, 10: 106, 11: 24, 12: 12, 13: 12}
	for r, v := range want {
		if vm.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, vm.Regs[r], v)
		}
	}
	if !vm.halted {
		t.Error("should have halted")
	}
}

func TestMemoryOps(t *testing.T) {
	vm := run(t, `
 li r1, 3
 li r2, 1234
 st r2, 2(r1)   ; mem[5] = 1234
 ld r3, 5(r0)   ; r3 = mem[5]
 halt
`, 16, nil)
	if vm.Mem[5] != 1234 || vm.Regs[3] != 1234 {
		t.Errorf("mem[5]=%d r3=%d", vm.Mem[5], vm.Regs[3])
	}
	p := vm.Profile()
	if p.MemReads != 1 || p.MemWrites != 1 {
		t.Errorf("mem profile = %+v", p)
	}
}

func TestBranches(t *testing.T) {
	vm := run(t, `
 li r1, 5
 li r2, 5
 li r3, 9
 beq r1, r2, t1
 li r10, 111    ; skipped
t1: bne r1, r3, t2
 li r11, 111    ; skipped
t2: blt r1, r3, t3
 li r12, 111    ; skipped
t3: bge r3, r1, done
 li r13, 111    ; skipped
done: halt
`, 8, nil)
	for r := 10; r <= 13; r++ {
		if vm.Regs[r] != 0 {
			t.Errorf("branch failed to skip li r%d", r)
		}
	}
	if vm.Profile().TakenBranches != 4 {
		t.Errorf("taken = %d, want 4", vm.Profile().TakenBranches)
	}
}

func TestCallRetStack(t *testing.T) {
	vm := run(t, `
 li r1, 10
 call double
 call double
 halt
double: add r1, r1, r1
 ret
`, 64, nil)
	if vm.Regs[1] != 40 {
		t.Errorf("r1 = %d, want 40", vm.Regs[1])
	}
	if vm.SP != 64 {
		t.Errorf("stack not balanced: SP = %d", vm.SP)
	}
}

func TestPushPop(t *testing.T) {
	vm := run(t, `
 li r1, 7
 li r2, 8
 push r1
 push r2
 pop r3
 pop r4
 halt
`, 32, nil)
	if vm.Regs[3] != 8 || vm.Regs[4] != 7 {
		t.Errorf("LIFO violated: r3=%d r4=%d", vm.Regs[3], vm.Regs[4])
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src string
		mem       int
		want      string
	}{
		{"divzero", "li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt", 8, "division by zero"},
		{"loadrange", "li r1, 100\nld r2, 0(r1)\nhalt", 8, "load address"},
		{"storerange", "li r1, -1\nst r1, 0(r1)\nhalt", 8, "store address"},
		{"underflow", "pop r1\nhalt", 8, "stack underflow"},
		{"pcrange", "jmp off\noff:", 8, "program counter out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vm := NewVM(mustAssemble(c.src), c.mem)
			err := vm.Run()
			if err == nil {
				t.Fatal("expected trap")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestStackOverflow(t *testing.T) {
	vm := NewVM(mustAssemble("loop: push r0\njmp loop"), 8)
	err := vm.Run()
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	vm := NewVM(mustAssemble("loop: jmp loop"), 4)
	vm.MaxSteps = 1000
	err := vm.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v", err)
	}
}

func TestStepAfterHalt(t *testing.T) {
	vm := NewVM(mustAssemble("halt"), 4)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	done, err := vm.Step()
	if !done || err != nil {
		t.Error("Step after halt should be a no-op success")
	}
}

func TestTracerSeesAccesses(t *testing.T) {
	var trace []struct {
		addr  uint64
		write bool
	}
	vm := NewVM(mustAssemble("li r1, 9\nst r1, 3(r0)\nld r2, 3(r0)\nhalt"), 16)
	vm.Tracer = func(addr uint64, write bool) {
		trace = append(trace, struct {
			addr  uint64
			write bool
		}{addr, write})
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0].addr != 3 || !trace[0].write || trace[1].write {
		t.Errorf("trace = %+v", trace)
	}
}

func TestProfileCounts(t *testing.T) {
	vm := run(t, "li r1, 1\nadd r2, r1, r1\nmul r3, r1, r1\nld r4, 0(r0)\nhalt", 8, nil)
	p := vm.Profile()
	if p.Total != 5 {
		t.Errorf("total = %d", p.Total)
	}
	if p.ByClass[ClassALU] != 2 || p.ByClass[ClassMul] != 1 || p.ByClass[ClassLoad] != 1 || p.ByClass[ClassNop] != 1 {
		t.Errorf("by class = %v", p.ByClass)
	}
	if p.ByOp[OpLi] != 1 || p.ByOp[OpAdd] != 1 {
		t.Errorf("by op = %v", p.ByOp)
	}
}

// The three sorting programs must agree with Go's sort on arbitrary
// inputs — the substrate correctness property everything else rests on.
func TestSortProgramsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, prog := range SortPrograms() {
		t.Run(prog.Name, func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				n := rng.Intn(60)
				data := make([]int64, n)
				for i := range data {
					data[i] = int64(rng.Intn(2000) - 1000)
				}
				want := append([]int64(nil), data...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				_, got, err := RunSort(prog.Src, data)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d: got[%d]=%d want %d", n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestSortProgramsQuick(t *testing.T) {
	// Property-based: random byte slices, all three programs sort them.
	for _, prog := range SortPrograms() {
		src := prog.Src
		f := func(raw []byte) bool {
			if len(raw) > 64 {
				raw = raw[:64]
			}
			data := make([]int64, len(raw))
			for i, b := range raw {
				data[i] = int64(b) - 128
			}
			_, got, err := RunSort(src, data)
			if err != nil {
				return false
			}
			return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", prog.Name, err)
		}
	}
}

func TestSortedInputIsCheapForInsertion(t *testing.T) {
	// Insertion sort degenerates to O(n) on sorted input; bubble still
	// scans O(n²).  The instruction counts must reflect that.
	n := 200
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	insProf, _, err := RunSort(InsertionSortSrc, sorted)
	if err != nil {
		t.Fatal(err)
	}
	bubProf, _, err := RunSort(BubbleSortSrc, sorted)
	if err != nil {
		t.Fatal(err)
	}
	if insProf.Total*10 > bubProf.Total {
		t.Errorf("insertion (%d) should be ≫ cheaper than bubble (%d) on sorted input",
			insProf.Total, bubProf.Total)
	}
}

func TestQuicksortBeatsBubbleAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(rng.Intn(1 << 20))
	}
	qProf, _, err := RunSort(QuickSortSrc, data)
	if err != nil {
		t.Fatal(err)
	}
	bProf, _, err := RunSort(BubbleSortSrc, data)
	if err != nil {
		t.Fatal(err)
	}
	if qProf.Total*10 > bProf.Total {
		t.Errorf("quicksort (%d instrs) should be ≫ cheaper than bubble (%d) at n=%d",
			qProf.Total, bProf.Total, n)
	}
}
