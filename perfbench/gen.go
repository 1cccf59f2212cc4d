package main

import (
	"bytes"
	"fmt"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
)

// groupColumn names the group label column of every generated CSV.
const groupColumn = "group"

// csvOf renders a generated dataset as the CSV bytes the system receives.
func csvOf(d *dataset.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d, groupColumn); err != nil {
		return nil, fmt.Errorf("rendering %s as CSV: %w", d.Name(), err)
	}
	return buf.Bytes(), nil
}

// continuousSpec is the mine-continuous dataset: a Spambase/CreditCard
// shape where nearly every attribute is continuous, so SDAD-CS does the
// work.
func continuousSpec(seed int64) datagen.UCISpec {
	return datagen.UCISpec{Name: "mine-continuous", Group0: "spam", Group1: "ham",
		N0: 900, N1: 700, Cat: 2, Cont: 24, Strength: 0.5, Seed: subSeed(seed, 1)}
}

// categoricalSpec is the mine-categorical dataset: no continuous
// attribute, so every node is an AND and popcount over bitmaps.
func categoricalSpec(seed int64) datagen.UCISpec {
	return datagen.UCISpec{Name: "mine-categorical", Group0: "a", Group1: "b",
		N0: 18000, N1: 14000, Cat: 24, Cont: 0, Strength: 0.5, Seed: subSeed(seed, 2)}
}

// manufacturing is the 40-attribute packaging-line dataset the service
// mines; its planted root cause is CAM_entity=SCE / placement_tool=JVF.
func manufacturing(seed int64) *dataset.Dataset {
	return datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: subSeed(seed, 3), Population: 2000, Failed: 500, Features: 40})
}

// manufacturingVariant is the k-th dataset a serve client registers:
// smaller, and distinct for every (seed, client, k).
func manufacturingVariant(seed int64, client, k int) *dataset.Dataset {
	return datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: subSeed(seed, 4, int64(client), int64(k)), Population: 320, Failed: 80, Features: 40})
}

// streamPool is the row pool the stream-drift trace draws from.
func streamPool(seed int64) *dataset.Dataset {
	return datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: subSeed(seed, 5), Population: 1000, Failed: 250, Features: 14})
}
