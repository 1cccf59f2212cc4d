package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fastOpts keeps experiment tests quick: shrunken data and two small
// datasets for the quantitative tables.
func fastOpts() Options {
	return Options{
		Quick: true,
		Only:  []string{"BreastCancer", "Transfusion"},
	}
}

func TestTableFprint(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"x", "y"}, {"wide-cell", "z"}},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "wide-cell") {
		t.Error("missing cells")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("lines = %d, want 5", len(lines))
	}
}

func TestFigure2Shape(t *testing.T) {
	res := Figure2(fastOpts())
	if len(res.Contrasts) < 2 {
		t.Fatalf("Figure 2 bins = %d, want >= 2", len(res.Contrasts))
	}
	// One bin must be (near) pure — the left-of-median space of §4.4.
	pure := false
	for _, c := range res.Contrasts {
		if c.Supports.PR() > 0.95 {
			pure = true
		}
	}
	if !pure {
		t.Error("no near-pure bin found")
	}
	if len(res.Table.Rows) != len(res.Contrasts) {
		t.Error("table rows mismatch")
	}
}

func TestFigure3Shape(t *testing.T) {
	res := Figure3(fastOpts())
	if len(res.Tables) != 4 {
		t.Fatalf("tables = %d, want 4", len(res.Tables))
	}
	// Dataset 2 (the X shape): entropy must find nothing, SDAD-CS must
	// find multivariate boxes.
	sim2 := res.Runs[1]
	if n := len(sim2["Entropy"].Contrasts); n != 0 {
		t.Errorf("entropy found %d contrasts on XOR data, want 0", n)
	}
	if len(sim2["SDAD-CS"].Contrasts) == 0 {
		t.Error("SDAD-CS found nothing on XOR data")
	}
	// Dataset 3: SDAD-CS reports only level-1 patterns.
	for _, c := range res.Runs[2]["SDAD-CS"].Contrasts {
		if c.Set.Len() > 1 {
			t.Error("SDAD-CS reported a level-2 pattern on the level-1-only data")
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	res := Figure4(fastOpts())
	if len(res.Age) < 5 || len(res.Hours) < 5 {
		t.Fatalf("bins: age=%d hours=%d", len(res.Age), len(res.Hours))
	}
	// The youngest age bin is Bachelors-dominated with high PR.
	first := res.Age[0]
	if first.SuppBach <= first.SuppDoc {
		t.Error("youngest bin should favor Bachelors")
	}
	// The oldest bins favor Doctorates.
	last := res.Age[len(res.Age)-1]
	if last.SuppDoc <= last.SuppBach {
		t.Error("oldest bin should favor Doctorates")
	}
}

func TestTable1Shape(t *testing.T) {
	res := Table1(fastOpts())
	for _, name := range []string{"SDAD-CS (PR)", "SDAD-CS (Diff)", "Cortana-Interval", "Entropy", "MVD"} {
		if _, ok := res.Runs[name]; !ok {
			t.Errorf("missing run %q", name)
		}
	}
	if len(res.Runs["SDAD-CS (Diff)"].Contrasts) == 0 {
		t.Error("SDAD-CS (Diff) found nothing on Adult")
	}
	if len(res.Table.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestTable2Shape(t *testing.T) {
	tab := Table2(fastOpts())
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Adult" {
		t.Errorf("first dataset = %q", tab.Rows[0][0])
	}
}

func TestTable3Shape(t *testing.T) {
	res := Table3(fastOpts())
	if len(res.Top) == 0 {
		t.Fatal("no top contrasts")
	}
	if len(res.Meaning) != len(res.Top) || len(res.Expected) != len(res.Top) {
		t.Fatal("parallel slices mismatch")
	}
	// The paper's point: most of Cortana's top-5 are not meaningful.
	meaningless := 0
	for _, m := range res.Meaning {
		if !m.Meaningful() {
			meaningless++
		}
	}
	if meaningless < len(res.Meaning)/2 {
		t.Errorf("only %d/%d top Cortana patterns flagged, expected a majority",
			meaningless, len(res.Meaning))
	}
}

func TestTable4Shape(t *testing.T) {
	res := Table4(fastOpts())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (Only filter)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SDADNP <= 0 {
			t.Errorf("%s: SDAD-CS NP mean = %v", row.Dataset, row.SDADNP)
		}
		if row.K <= 0 {
			t.Errorf("%s: k = %d", row.Dataset, row.K)
		}
		// MVD's global fragmenting should not beat the adaptive miner on
		// the strongly-structured BreastCancer data.
		if row.Dataset == "BreastCancer" && row.MVD > row.SDADNP+0.1 {
			t.Errorf("MVD %v unexpectedly above SDAD-CS NP %v", row.MVD, row.SDADNP)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	res := Table5(fastOpts())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PartsSDAD <= 0 || row.PartsNP <= 0 || row.PartsMVD <= 0 {
			t.Errorf("%s: zero partition counts %+v", row.Dataset, row)
		}
		// The headline claim: pruning evaluates no more partitions than NP.
		if row.PartsSDAD > row.PartsNP {
			t.Errorf("%s: SDAD-CS evaluated %d > NP %d", row.Dataset, row.PartsSDAD, row.PartsNP)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	res := Table6(fastOpts())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Meaningful+row.Meaningless == 0 {
			t.Errorf("%s: no patterns classified", row.Dataset)
		}
		// The paper's finding: the majority of unfiltered top patterns are
		// not meaningful.
		if row.Meaningless < row.Meaningful {
			t.Errorf("%s: meaningless %d < meaningful %d — unexpected",
				row.Dataset, row.Meaningless, row.Meaningful)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	res := Table7(fastOpts())
	if len(res.Contrasts) == 0 {
		t.Fatal("no manufacturing contrasts")
	}
	var joined strings.Builder
	for _, row := range res.Table.Rows {
		joined.WriteString(row[0] + "\n")
	}
	out := joined.String()
	for _, want := range []string{"CAM_entity = SCE", "placement_tool = JVF", "CAM_row_location = Rear"} {
		if !strings.Contains(out, want) {
			t.Errorf("signature row %q missing from Table 7:\n%s", want, out)
		}
	}
}

func TestAblationShape(t *testing.T) {
	res := Ablation(fastOpts())
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Variant] = r
	}
	base := byName["baseline (all pruning, paper OE, levelwise)"]
	none := byName["no pruning at all"]
	if base.Partitions <= 0 {
		t.Fatal("baseline evaluated nothing")
	}
	if none.Partitions < base.Partitions {
		t.Errorf("disabling all pruning should not reduce work: %d < %d",
			none.Partitions, base.Partitions)
	}
	cons := byName["conservative OE"]
	if cons.Partitions < base.Partitions {
		t.Errorf("conservative OE should not prune harder than the paper's: %d < %d",
			cons.Partitions, base.Partitions)
	}
}

func TestValidationShape(t *testing.T) {
	res := Validation(fastOpts())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.NFiltered == 0 {
			t.Errorf("%s: no meaningful patterns mined", row.Dataset)
			continue
		}
		if row.RateFiltered < 0 || row.RateFiltered > 1 || row.RateNP < 0 || row.RateNP > 1 {
			t.Errorf("%s: rates out of range: %+v", row.Dataset, row)
		}
		// The thesis: filtered patterns replicate at least as well as the
		// unfiltered pool (ties allowed — on strongly-planted data both
		// can be 1.0).
		if row.RateFiltered+0.1 < row.RateNP {
			t.Errorf("%s: meaningful rate %.2f well below unfiltered %.2f",
				row.Dataset, row.RateFiltered, row.RateNP)
		}
	}
}

func TestScalingShape(t *testing.T) {
	res := Scaling(fastOpts())
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Elapsed <= 0 || p.Rows <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	if res.Points[2].Rows <= res.Points[0].Rows {
		t.Error("row counts not increasing")
	}
}

// TestStarNotSigNaNSafe pins Table 4's comparison-cell rendering: the star
// means "not significantly different from the baseline", and an undecidable
// comparison (NaN p-value, e.g. one algorithm found nothing so there is no
// sample to rank) must be starred, never silently presented as a
// significant difference.
func TestStarNotSigNaNSafe(t *testing.T) {
	cases := []struct {
		name string
		p    float64
		star bool
	}{
		{"significant difference", 0.01, false},
		{"boundary p = 0.05", 0.05, true},
		{"not significant", 0.5, true},
		{"undecidable NaN", math.NaN(), true},
	}
	for _, tc := range cases {
		got := starNotSig(1.25, tc.p)
		if starred := strings.HasSuffix(got, "*"); starred != tc.star {
			t.Errorf("%s: starNotSig(1.25, %v) = %q, starred=%v want %v",
				tc.name, tc.p, got, starred, tc.star)
		}
		if !strings.HasPrefix(got, "1.25") {
			t.Errorf("%s: value not rendered: %q", tc.name, got)
		}
	}
}
