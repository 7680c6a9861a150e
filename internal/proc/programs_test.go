package proc

import (
	"math/rand"
	"sort"
	"testing"
)

func TestShellSortCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(120)
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(rng.Intn(4000) - 2000)
		}
		_, got, err := RunSort(ShellSortSrc, data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("n=%d: not sorted: %v", n, got)
		}
	}
}

func TestShellSortComplexityBetweenNeighbours(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]int64, 600)
	for i := range data {
		data[i] = int64(rng.Intn(1 << 16))
	}
	shell, _, err := RunSort(ShellSortSrc, data)
	_ = shell
	if err != nil {
		t.Fatal(err)
	}
	pShell, _, _ := RunSort(ShellSortSrc, data)
	pBubble, _, _ := RunSort(BubbleSortSrc, data)
	pQuick, _, _ := RunSort(QuickSortSrc, data)
	if !(pShell.Total < pBubble.Total && pShell.Total > pQuick.Total) {
		t.Errorf("instruction counts: bubble %d, shell %d, quick %d",
			pBubble.Total, pShell.Total, pQuick.Total)
	}
}

// firSrc is a direct-form FIR filter: the multiply-heavy DSP inner
// loop whose energy is dominated by ClassMul — the workload the
// paper's multiplier model (EQ 20) exists for.
//
// Calling convention: r0 = x base, r1 = x length, r2 = h base,
// r3 = tap count, r4 = y base; y[n] = Σ h[k]·x[n−k] for n ≥ taps−1.
const firSrc = `
; FIR: r0 = x, r1 = nx, r2 = h, r3 = taps, r4 = y
        addi r5, r3, -1     ; n = taps-1
nloop:  bge  r5, r1, done
        li   r6, 0          ; acc
        li   r7, 0          ; k
kloop:  bge  r7, r3, kdone
        add  r8, r2, r7
        ld   r9, 0(r8)      ; h[k]
        sub  r10, r5, r7
        add  r11, r0, r10
        ld   r12, 0(r11)    ; x[n-k]
        mul  r13, r9, r12
        add  r6, r6, r13
        addi r7, r7, 1
        jmp  kloop
kdone:  add  r8, r4, r5
        st   r6, 0(r8)
        addi r5, r5, 1
        jmp  nloop
done:   halt
`

// runFIR assembles and executes the FIR program over input x and taps
// h, returning the filtered output (aligned with x; the first
// len(h)-1 entries are untouched zeros) and the profile.
func runFIR(x, h []int64) ([]int64, *Profile, error) {
	prog, err := Assemble(firSrc)
	if err != nil {
		return nil, nil, err
	}
	nx, taps := len(x), len(h)
	memWords := 2*nx + taps + 256
	vm := NewVM(prog, memWords)
	copy(vm.Mem, x)
	copy(vm.Mem[nx:], h)
	vm.Regs[0] = 0
	vm.Regs[1] = int64(nx)
	vm.Regs[2] = int64(nx)
	vm.Regs[3] = int64(taps)
	vm.Regs[4] = int64(nx + taps)
	if err := vm.Run(); err != nil {
		return nil, nil, err
	}
	out := make([]int64, nx)
	copy(out, vm.Mem[nx+taps:nx+taps+nx])
	return out, vm.Profile(), nil
}

func TestFIRMatchesGoReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := make([]int64, 200)
	for i := range x {
		x[i] = int64(rng.Intn(200) - 100)
	}
	h := []int64{3, -1, 4, 1, -5}
	got, prof, err := runFIR(x, h)
	if err != nil {
		t.Fatal(err)
	}
	for n := len(h) - 1; n < len(x); n++ {
		var want int64
		for k := range h {
			want += h[k] * x[n-k]
		}
		if got[n] != want {
			t.Fatalf("y[%d] = %d, want %d", n, got[n], want)
		}
	}
	// The first taps-1 outputs are not computed.
	for n := 0; n < len(h)-1; n++ {
		if got[n] != 0 {
			t.Errorf("y[%d] should be untouched", n)
		}
	}
	// One multiply per (n, k) pair.
	wantMuls := uint64((len(x) - len(h) + 1) * len(h))
	if prof.ByClass[ClassMul] != wantMuls {
		t.Errorf("muls = %d, want %d", prof.ByClass[ClassMul], wantMuls)
	}
}

func TestFIRIsMultiplyHeavy(t *testing.T) {
	// The DSP point: the FIR kernel spends a far larger energy fraction
	// in the multiplier class than control-style code (quicksort) does —
	// the workload contrast EQ 20's multiplier model exists for.
	x := make([]int64, 400)
	for i := range x {
		x[i] = int64(i % 97)
	}
	h := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	_, firProf, err := runFIR(x, h)
	if err != nil {
		t.Fatal(err)
	}
	sortProf, _, err := RunSort(QuickSortSrc, x)
	if err != nil {
		t.Fatal(err)
	}
	tab := DefaultEnergyTable()
	mulFrac := func(p *Profile) float64 {
		mulE := float64(p.ByClass[ClassMul]) * float64(tab.PerClass[ClassMul])
		return mulE / float64(tab.ProgramEnergy(p))
	}
	fir, srt := mulFrac(firProf), mulFrac(sortProf)
	if fir < 0.15 {
		t.Errorf("FIR multiply energy fraction = %.2f, want substantial", fir)
	}
	if fir < 10*srt {
		t.Errorf("FIR (%.3f) should be ≫ more multiply-heavy than quicksort (%.3f)", fir, srt)
	}
}

func TestSortProgramsIncludesShell(t *testing.T) {
	names := map[string]bool{}
	for _, p := range SortPrograms() {
		names[p.Name] = true
	}
	for _, want := range []string{"bubble", "insertion", "shellsort", "quicksort"} {
		if !names[want] {
			t.Errorf("missing program %q", want)
		}
	}
}
