package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// TestFixtures runs each analyzer over its fixture package and compares
// the diagnostics against the golden file. Every fixture contains at
// least one positive finding and one //lint:ignore-suppressed site, so
// the goldens pin both the detection and the suppression paths.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			testdata, err := filepath.Abs("testdata")
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(testdata, "src", a.Name)
			pkg, err := LoadFixture(dir)
			if err != nil {
				t.Fatalf("LoadFixture(%s): %v", dir, err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("fixture should type-check cleanly: %v", terr)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{a})
			Relativize(diags, testdata)
			var lines []string
			for _, d := range diags {
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}

			golden := filepath.Join(testdata, a.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixturesSuppressBothPlacements double-checks the two sanctioned
// directive placements (same line, line above) on the nosleep fixture:
// no surviving diagnostic may land on a line adjacent to a well-formed
// ignore directive for its own analyzer.
func TestFixturesSuppressBothPlacements(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "nosleep"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildSuppressions(pkg)
	for _, d := range Run([]*Package{pkg}, []*Analyzer{analyzerNoSleep}) {
		if idx.suppressed(d.Analyzer, d.Pos) {
			t.Errorf("suppressed finding survived: %s", d)
		}
	}
}

// TestMalformedDirectiveReported pins the pseudo-analyzer path: a
// directive with no reason is itself a finding AND does not suppress.
func TestMalformedDirectiveReported(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "nosleep"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{analyzerNoSleep})
	var sawMalformed, sawUnsuppressed bool
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "malformed") {
			sawMalformed = true
		}
		// The sleep under the malformed directive must still be reported.
		if d.Analyzer == "nosleep" && d.Pos.Line == malformedSleepLine(t, dir) {
			sawUnsuppressed = true
		}
	}
	if !sawMalformed {
		t.Error("malformed //lint:ignore directive was not reported")
	}
	if !sawUnsuppressed {
		t.Error("finding under a malformed directive was suppressed; malformed directives must not suppress")
	}
}

// malformedSleepLine locates the sleep call guarded by the malformed
// directive in the nosleep fixture, so the test doesn't hard-code a line
// number that drifts when the fixture is edited.
func malformedSleepLine(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "nosleep.go"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) == "//lint:ignore nosleep" && i+1 < len(lines) {
			return i + 2 // 1-based line of the statement below the directive
		}
	}
	t.Fatal("malformed directive not found in nosleep fixture")
	return 0
}

// TestBuildTaggedTwinsLoadClean loads a package whose functions each have
// a build-constrained twin (a //go:build pair and a _GOOS suffix file):
// only the files the compiler would build are checked, so there is no
// redeclaration and no finding.
func TestBuildTaggedTwinsLoadClean(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "buildtags"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 3 {
		t.Errorf("loaded %d files, want 3 (use.go, impl.go, os.go)", len(pkg.Files))
	}
	for _, d := range Run([]*Package{pkg}, All()) {
		t.Errorf("finding in build-tagged fixture: %s", d)
	}
}

// TestTypeErrorsAreFindings pins that a package which does not type-check
// fails the run: two unconstrained twins are a redeclaration.
func TestTypeErrorsAreFindings(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.go", "b.go"} {
		src := "package twins\n\nfunc twin() {}\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, nil)
	for _, d := range diags {
		if d.Analyzer == "typecheck" && strings.Contains(d.Message, "redeclared") {
			return
		}
	}
	t.Fatalf("Run = %v, want a typecheck redeclaration finding", diags)
}

// TestSelect covers the driver's -analyzers flag parsing.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := Select("nosleep, errwrap")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "nosleep" || two[1].Name != "errwrap" {
		t.Errorf("Select(\"nosleep, errwrap\") = %v", two)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Error("Select(\"nosuch\") should fail")
	}
}

// TestRepoIsLintClean runs the full analyzer suite over this module
// in-process, so `go test ./...` alone catches invariant regressions
// even where `make lint` isn't wired in.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped in -short mode")
	}
	m, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(m.Packages(), All())
	Relativize(diags, m.Root)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); the tree must stay raglint-clean (fix the code or add a reasoned //lint:ignore)", len(diags))
	}
}
