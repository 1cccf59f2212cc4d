package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzCounts decodes a fuzz input into a 2×k test's arguments. The first
// byte picks k (0–12: 0 and 1 are rejected lengths) and, with bit 0x10, a
// size slice one longer than count; bit 0x20 negates the first count.
// Each group then reads two little-endian uint16s, the group size and a
// count taken modulo size+2, so a count one past its size also occurs.
// Missing bytes read as zero, which makes empty and degenerate tables.
func fuzzCounts(data []byte) (count, size []int) {
	if len(data) == 0 {
		return nil, nil
	}
	h := data[0]
	data = data[1:]
	k := min(int(h&0x0f), 12)
	sizeLen := k
	if h&0x10 != 0 {
		sizeLen++
	}
	next := func() int {
		var b [2]byte
		n := copy(b[:], data)
		data = data[n:]
		return int(binary.LittleEndian.Uint16(b[:]))
	}
	count, size = make([]int, k), make([]int, sizeLen)
	for i := range size {
		size[i] = next()
		if i < k {
			count[i] = next() % (size[i] + 2)
		}
	}
	if k > 0 && h&0x20 != 0 {
		count[0] = -count[0] - 1
	}
	return count, size
}

// sameResult reports whether two test outcomes agree bit for bit: both
// errors with one message, or both results with equal bits in every field.
func sameResult(t *testing.T, what string, got ChiSquareResult, err error, want ChiSquareResult, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", what, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, reference error %q", what, err, wantErr)
		}
		return
	}
	if math.Float64bits(got.Statistic) != math.Float64bits(want.Statistic) ||
		math.Float64bits(got.P) != math.Float64bits(want.P) ||
		math.Float64bits(got.MinExpected) != math.Float64bits(want.MinExpected) ||
		got.DF != want.DF {
		t.Fatalf("%s: %+v, reference %+v", what, got, want)
	}
}

// FuzzChiSquare2xK holds the flat chi-square tests to the nested-slice
// reference (chisq_reference_test.go) bit for bit: ChiSquare2xK on the
// group × presence table, ChiSquareOptimistic's bound, and ChiSquareTable
// on the two-row table SDAD-CS's merge similarity test builds.
func FuzzChiSquare2xK(f *testing.F) {
	le := func(vs ...uint16) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint16(out, v)
		}
		return out
	}
	f.Add(append([]byte{2}, le(1000, 340, 800, 120)...))
	f.Add(append([]byte{3}, le(50, 10, 60, 0, 40, 40)...))
	f.Add(append([]byte{8}, le(900, 12, 700, 650, 30, 1, 5, 5, 64000, 1000, 7, 0, 2, 2, 1, 0)...))
	f.Add(append([]byte{12}, le(1, 1, 2, 0, 3, 3, 4, 4, 5, 0, 6, 1, 7, 7, 8, 8, 9, 9, 10, 0, 11, 11, 12, 12)...))
	f.Add(append([]byte{2}, le(0, 0, 10, 5)...))            // an empty group
	f.Add(append([]byte{2}, le(10, 11, 10, 5)...))          // a count past its size
	f.Add(append([]byte{0x22}, le(10, 3, 10, 5)...))        // a negative count
	f.Add(append([]byte{0x12}, le(10, 3, 10, 5, 7)...))     // mismatched lengths
	f.Add([]byte{1, 10, 0, 5, 0})                           // one group
	f.Add(append([]byte{4}, le(5, 5, 6, 6, 7, 7, 8, 8)...)) // every row has the pattern

	f.Fuzz(func(t *testing.T, data []byte) {
		count, size := fuzzCounts(data)
		got, err := ChiSquare2xK(count, size)
		want, wantErr := referenceChiSquare2xK(count, size)
		sameResult(t, "ChiSquare2xK", got, err, want, wantErr)

		if len(count) == len(size) {
			if b, rb := ChiSquareOptimistic(count, size), referenceChiSquareOptimistic(count, size); math.Float64bits(b) != math.Float64bits(rb) {
				t.Fatalf("ChiSquareOptimistic = %v, reference %v", b, rb)
			}
		}

		rows := [][]float64{make([]float64, len(count)), make([]float64, len(size))}
		for i, n := range count {
			rows[0][i] = float64(n)
		}
		for i, n := range size {
			rows[1][i] = float64(n)
		}
		got, err = ChiSquareTable(rows)
		want, wantErr = referenceChiSquareTable(rows)
		sameResult(t, "ChiSquareTable", got, err, want, wantErr)
	})
}

// TestChiSquareNoAllocs: the group × presence test and its optimistic
// bound run on stack tables, at the paper's two groups and at eight.
func TestChiSquareNoAllocs(t *testing.T) {
	cases := []struct{ count, size []int }{
		{[]int{340, 120}, []int{1000, 800}},
		{[]int{12, 650, 1, 5, 1000, 0, 2, 0}, []int{900, 700, 30, 5, 64000, 7, 2, 1}},
	}
	for _, tc := range cases {
		k := len(tc.count)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ChiSquare2xK(tc.count, tc.size); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ChiSquare2xK at k=%d: %v allocs/op, want 0", k, n)
		}
		if n := testing.AllocsPerRun(100, func() { ChiSquareOptimistic(tc.count, tc.size) }); n != 0 {
			t.Errorf("ChiSquareOptimistic at k=%d: %v allocs/op, want 0", k, n)
		}
	}
}
