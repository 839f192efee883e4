package main

import (
	"os"
	"path/filepath"
	"testing"
)

// fakeBuild lays out the marker and the four outputs a finished build leaves.
func fakeBuild(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	paths := []string{markerPath(dir)}
	for _, name := range outputs {
		paths = append(paths, filepath.Join(dir, name))
	}
	for _, p := range paths {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestBuiltSkipsWithMarkerAndOutputs(t *testing.T) {
	if !built(fakeBuild(t)) {
		t.Fatal("marker and all outputs present, want skip")
	}
}

func TestBuiltRebuildsWithoutMarker(t *testing.T) {
	dir := fakeBuild(t)
	if err := os.Remove(markerPath(dir)); err != nil {
		t.Fatal(err)
	}
	if built(dir) {
		t.Fatal("marker missing, want rebuild")
	}
}

func TestBuiltRebuildsOnMissingOutput(t *testing.T) {
	for _, name := range outputs {
		t.Run(name, func(t *testing.T) {
			dir := fakeBuild(t)
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
			if built(dir) {
				t.Fatalf("%s missing, want rebuild", name)
			}
		})
	}
}

// TestRunRestart drives the restart contract end to end at a tiny scale: a
// second run skips the build, and losing one output makes the next run
// rebuild it.
func TestRunRestart(t *testing.T) {
	dir := t.TempDir()
	if err := run(0.001, 42, dir, 7.0, 2); err != nil {
		t.Fatal(err)
	}
	if !built(dir) {
		t.Fatal("first run left no finished build")
	}
	questions := filepath.Join(dir, "questions.jsonl")
	if err := os.WriteFile(questions, []byte("sentinel"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(0.001, 42, dir, 7.0, 2); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(questions); string(b) != "sentinel" {
		t.Fatal("second run rebuilt a finished build")
	}
	if err := os.Remove(questions); err != nil {
		t.Fatal(err)
	}
	if err := run(0.001, 42, dir, 7.0, 2); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(questions); len(b) == 0 || string(b) == "sentinel" {
		t.Fatal("run after a lost output did not rebuild it")
	}
}
