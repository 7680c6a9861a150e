package proc

// Built-in benchmark programs for the fictitious processor, following
// Ong and Yan's power-conscious software study (the paper's ref [15]):
// the same sorting task coded three ways, spanning O(n²) to O(n·log n),
// so the instruction-level model can expose the energy spread that the
// data-sheet model (EQ 11) is blind to.
//
// Calling convention for all programs: r0 = array base (word index),
// r1 = element count; the program sorts in place ascending and halts.

// BubbleSortSrc is the O(n²) exchange sort.
const BubbleSortSrc = `
; bubble sort: r0 = base, r1 = n
        li   r2, 0          ; i
outer:  addi r10, r1, -1    ; r10 = n-1
        bge  r2, r10, done
        sub  r11, r10, r2   ; r11 = n-1-i
        li   r3, 0          ; j
inner:  bge  r3, r11, iend
        add  r4, r0, r3
        ld   r5, 0(r4)      ; a[j]
        ld   r6, 1(r4)      ; a[j+1]
        bge  r6, r5, noswap
        st   r6, 0(r4)
        st   r5, 1(r4)
noswap: addi r3, r3, 1
        jmp  inner
iend:   addi r2, r2, 1
        jmp  outer
done:   halt
`

// InsertionSortSrc is the O(n²) sort with good behaviour on
// nearly-sorted data.
const InsertionSortSrc = `
; insertion sort: r0 = base, r1 = n
        li   r14, 0
        li   r2, 1          ; i
outer:  bge  r2, r1, done
        add  r4, r0, r2
        ld   r5, 0(r4)      ; key
        addi r3, r2, -1     ; j
inner:  blt  r3, r14, place
        add  r6, r0, r3
        ld   r7, 0(r6)
        bge  r5, r7, place  ; key >= a[j] -> insert after j
        st   r7, 1(r6)      ; a[j+1] = a[j]
        addi r3, r3, -1
        jmp  inner
place:  addi r3, r3, 1
        add  r6, r0, r3
        st   r5, 0(r6)
        addi r2, r2, 1
        jmp  outer
done:   halt
`

// QuickSortSrc is the O(n·log n) average-case recursive sort
// (Lomuto partition, pivot = last element).
const QuickSortSrc = `
; quicksort: r0 = base, r1 = n
main:   li   r10, 0
        addi r11, r1, -1
        mov  r1, r10        ; lo
        mov  r2, r11        ; hi
        call qsort
        halt

; qsort(r1 = lo, r2 = hi); clobbers r3..r12
qsort:  bge  r1, r2, qret
        ; partition around pivot = a[hi]
        add  r3, r0, r2
        ld   r4, 0(r3)      ; pivot
        addi r5, r1, -1     ; i = lo-1
        mov  r6, r1         ; j = lo
ploop:  bge  r6, r2, pend
        add  r7, r0, r6
        ld   r8, 0(r7)
        bge  r8, r4, pskip  ; a[j] >= pivot stays right
        addi r5, r5, 1
        add  r9, r0, r5
        ld   r12, 0(r9)
        st   r8, 0(r9)      ; swap a[i], a[j]
        st   r12, 0(r7)
pskip:  addi r6, r6, 1
        jmp  ploop
pend:   addi r5, r5, 1      ; p = i+1
        add  r7, r0, r5     ; swap a[p], a[hi]
        ld   r8, 0(r7)
        add  r9, r0, r2
        ld   r12, 0(r9)
        st   r12, 0(r7)
        st   r8, 0(r9)
        push r1             ; recurse left: qsort(lo, p-1)
        push r2
        push r5
        addi r2, r5, -1
        call qsort
        pop  r5
        pop  r2
        pop  r1
        push r1             ; recurse right: qsort(p+1, hi)
        push r2
        push r5
        addi r1, r5, 1
        call qsort
        pop  r5
        pop  r2
        pop  r1
qret:   ret
`

// ShellSortSrc is the gap-sequence sort: the O(n^1.3)-ish middle
// ground between the quadratic sorts and quicksort.
const ShellSortSrc = `
; shell sort (gap = n/2, n/4, ...): r0 = base, r1 = n
        li   r14, 0
        mov  r2, r1
        shri r2, r2, 1      ; gap = n/2
gaploop: beq r2, r14, done
        mov  r3, r2         ; i = gap
iloop:  bge  r3, r1, inext
        add  r4, r0, r3
        ld   r5, 0(r4)      ; temp = a[i]
        mov  r6, r3         ; j = i
jloop:  blt  r6, r2, place  ; j < gap
        sub  r7, r6, r2
        add  r8, r0, r7
        ld   r9, 0(r8)      ; a[j-gap]
        bge  r5, r9, place
        add  r10, r0, r6
        st   r9, 0(r10)     ; a[j] = a[j-gap]
        mov  r6, r7
        jmp  jloop
place:  add  r10, r0, r6
        st   r5, 0(r10)
        addi r3, r3, 1
        jmp  iloop
inext:  shri r2, r2, 1
        jmp  gaploop
done:   halt
`

// SortPrograms maps algorithm name → source, in descending asymptotic
// cost — the order the Ong/Yan reproduction reports them.
func SortPrograms() []struct{ Name, Src string } {
	return []struct{ Name, Src string }{
		{"bubble", BubbleSortSrc},
		{"insertion", InsertionSortSrc},
		{"shellsort", ShellSortSrc},
		{"quicksort", QuickSortSrc},
	}
}

// RunSort assembles and executes one of the sorting programs on the
// given data, returning the profile.  The data is laid out at word 0;
// the stack occupies the top of a memory sized for the recursion.
func RunSort(src string, data []int64) (*Profile, []int64, error) {
	prog, err := Assemble(src)
	if err != nil {
		return nil, nil, err
	}
	memWords := len(data) + 4096
	vm := NewVM(prog, memWords)
	copy(vm.Mem, data)
	vm.Regs[0] = 0
	vm.Regs[1] = int64(len(data))
	if err := vm.Run(); err != nil {
		return nil, nil, err
	}
	out := make([]int64, len(data))
	copy(out, vm.Mem[:len(data)])
	return vm.Profile(), out, nil
}
