package core

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eval"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_matrix.txt from this build's results")

// matrixLines renders every cell of a matrix as "table/model/condition
// correct/total meanUtility", the utility with every bit of its float64.
func matrixLines(table string, m *eval.Matrix) []string {
	var lines []string
	for _, row := range m.Rows {
		for _, cond := range m.Conditions {
			c := row.Cells[cond]
			if c == nil {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s/%s/%s %d/%d %s", table, row.Model, cond,
				c.Correct, c.Total, strconv.FormatFloat(c.MeanUtility, 'g', -1, 64)))
		}
	}
	return lines
}

// TestGoldenMatrix pins the whole evaluation output — every model ×
// condition cell of the synthetic, Astro and Astro no-math tables over the
// shared scale-0.01 build — to the values recorded before the coalescing
// window became adaptive and prompt assembly was split into plan + fit.
// Performance work on the build/evaluate path must leave these untouched;
// a change that means to move them regenerates the file with
// -update-golden and says why.
func TestGoldenMatrix(t *testing.T) {
	a := build(t)
	syn, err := EvaluateSynthetic(a)
	if err != nil {
		t.Fatal(err)
	}
	all, noMath, err := EvaluateAstro(a)
	if err != nil {
		t.Fatal(err)
	}
	lines := matrixLines("synthetic", syn)
	lines = append(lines, matrixLines("astro", all)...)
	lines = append(lines, matrixLines("astro-nomath", noMath)...)
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/golden_matrix.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("matrix has %d cells, golden file %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}
