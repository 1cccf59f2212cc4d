//go:build !amd64

package bitmap

// useAVX512 is false off amd64: the scalar loop is the only path.
const useAVX512 = false

// andCount returns the popcounts of a ∩ b and of a ∩ b ∩ g0 over len(a)
// words (b and g0 are at least that long).
func andCount(a, b, g0 []uint64) (t, c0 int) {
	return andCountScalar(a, b, g0)
}
