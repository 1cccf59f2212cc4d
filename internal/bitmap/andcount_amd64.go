package bitmap

// useAVX512 reports whether andCount runs the AVX-512 kernel: the CPU has
// AVX512F and AVX512_VPOPCNTDQ and the OS saves the opmask and ZMM
// registers. It is fixed at init.
var useAVX512 = detectAVX512()

// andCount returns the popcounts of a ∩ b and of a ∩ b ∩ g0 over len(a)
// words (b and g0 are at least that long). With the AVX-512 kernel, it
// counts the len(a) &^ 7 prefix eight words at a time and the scalar
// loop counts the tail.
func andCount(a, b, g0 []uint64) (t, c0 int) {
	n := len(a) &^ 7
	if !useAVX512 || n == 0 {
		return andCountScalar(a, b, g0)
	}
	b, g0 = b[:len(a)], g0[:len(a)]
	t, c0 = andCountAVX512(&a[0], &b[0], &g0[0], n)
	tt, tc0 := andCountScalar(a[n:], b[n:], g0[n:])
	return t + tt, c0 + tc0
}

// andCountAVX512 is andCount over n words, n a positive multiple of 8:
// VPANDQ and VPOPCNTQ over 8-word blocks, summed in two ZMM accumulators.
//
//go:noescape
func andCountAVX512(a, b, g0 *uint64, n int) (t, c0 int)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register-state mask the OS saves.
func xgetbv() (eax, edx uint32)

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	// XCR0 bits 1, 2: SSE and AVX state; 5, 6, 7: opmask, ZMM0–15 upper
	// halves, ZMM16–31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512vpopcntdq = 1 << 16, 1 << 14
	_, ebx7, ecx7, _ := cpuid(7, 0)
	if ebx7&avx512f == 0 || ecx7&avx512vpopcntdq == 0 {
		return false
	}
	return true
}
