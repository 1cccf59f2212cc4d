package dataset_test

import (
	"bytes"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
)

// BenchmarkFromCSV loads the two benchmark mine shapes (the same
// datagen.UCISpec sizes as the repository benchmark's mine workloads,
// other seeds) from CSV: 32,000 rows × 24 categorical columns, and
// 1,600 rows × 24 continuous and 2 categorical columns.
func BenchmarkFromCSV(b *testing.B) {
	shapes := []struct {
		name string
		spec datagen.UCISpec
	}{
		{"categorical-shape", datagen.UCISpec{Name: "categorical-shape", Group0: "a", Group1: "b",
			N0: 18000, N1: 14000, Cat: 24, Cont: 0, Strength: 0.5, Seed: 12}},
		{"continuous-shape", datagen.UCISpec{Name: "continuous-shape", Group0: "spam", Group1: "ham",
			N0: 900, N1: 700, Cat: 2, Cont: 24, Strength: 0.5, Seed: 11}},
	}
	for _, s := range shapes {
		var csv bytes.Buffer
		if err := dataset.WriteCSV(&csv, datagen.Planted(s.spec), "group"); err != nil {
			b.Fatal(err)
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(csv.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := dataset.FromCSV(bytes.NewReader(csv.Bytes()), dataset.CSVOptions{GroupColumn: "group"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
