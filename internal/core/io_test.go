package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/vecstore"
)

func factID(s string) corpus.FactID { return corpus.FactID(s) }

func TestSaveLoadRoundTrip(t *testing.T) {
	a := build(t)
	dir := t.TempDir()
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "questions.jsonl", "traces.jsonl", "chunks.jsonl", "chunks.vsf"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Questions) != len(a.Questions) || len(back.Traces) != len(a.Traces) || len(back.Chunks) != len(a.Chunks) {
		t.Fatalf("counts differ after reload: %d/%d/%d vs %d/%d/%d",
			len(back.Questions), len(back.Traces), len(back.Chunks),
			len(a.Questions), len(a.Traces), len(a.Chunks))
	}
	// Questions identical, including rubric subscores and topic tags.
	for i := range a.Questions {
		q1, q2 := a.Questions[i], back.Questions[i]
		if q1.ID != q2.ID || q1.Answer != q2.Answer || q1.Topic != q2.Topic {
			t.Fatalf("question %d differs after reload", i)
		}
		if q1.Checks.Rubric != q2.Checks.Rubric {
			t.Fatalf("rubric lost for %s", q1.ID)
		}
	}
	// KB rebuilt from config: provenance still resolves.
	q := back.Questions[0]
	if back.KB.Fact(factID(q.Prov.FactID)) == nil {
		t.Fatal("reloaded KB cannot resolve question fact")
	}
}

func TestLoadedArtifactsEvaluateIdentically(t *testing.T) {
	a := build(t)
	dir := t.TempDir()
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		t.Fatal(err)
	}
	conds := []llmsim.Condition{llmsim.CondBaseline, llmsim.CondChunks, llmsim.CondRTFocused}
	m1, err := eval.Run(a.SyntheticSetup(), []*llmsim.Profile{prof}, conds)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := eval.Run(back.SyntheticSetup(), []*llmsim.Profile{prof}, conds)
	if err != nil {
		t.Fatal(err)
	}
	for _, cond := range conds {
		if m1.Rows[0].Cells[cond].Correct != m2.Rows[0].Cells[cond].Correct {
			t.Fatalf("%s: reloaded artifacts evaluate differently", cond)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing dir loaded")
	}
}

func TestLoadRejectsManifestMismatch(t *testing.T) {
	a := build(t)
	dir := t.TempDir()
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate questions.jsonl to break the manifest count.
	path := filepath.Join(dir, "questions.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("mismatched artifacts loaded")
	}
}

// TestLoadRejectsMismatchedTraceIndex pins what Load does with each
// per-mode trace index: a foreign or truncated file is an error (wrapped,
// it would make its condition retrieval-free), and only an absent one
// falls back to re-embedding the traces.
func TestLoadRejectsMismatchedTraceIndex(t *testing.T) {
	a := build(t)
	focused := "traces_" + string(mcq.ModeFocused) + ".vsf"
	saved := func(t *testing.T) string {
		dir := t.TempDir()
		if err := a.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("foreign", func(t *testing.T) {
		dir := saved(t)
		data, err := os.ReadFile(filepath.Join(dir, "chunks.vsf"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, focused), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "focused trace index") {
			t.Fatalf("chunk index loaded as the focused trace index: err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir := saved(t)
		path := filepath.Join(dir, focused)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, vecstore.ErrBadFormat) {
			t.Fatalf("truncated trace index: err = %v, want ErrBadFormat", err)
		}
	})
	t.Run("absent", func(t *testing.T) {
		dir := saved(t)
		if err := os.Remove(filepath.Join(dir, focused)); err != nil {
			t.Fatal(err)
		}
		back, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range mcq.AllModes {
			if got, want := back.TraceStores[mode].Len(), a.TraceStores[mode].Len(); got != want {
				t.Fatalf("%s: reloaded store holds %d traces, want %d", mode, got, want)
			}
		}
		query := []string{a.Questions[0].Question}
		got := back.TraceStores[mcq.ModeFocused].RetrieveBatch(query, 5, nil)
		if want := a.TraceStores[mcq.ModeFocused].RetrieveBatch(query, 5, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-embedded focused store answers %v, built store %v", got, want)
		}
	})
}

func TestTopicTagsPropagate(t *testing.T) {
	a := build(t)
	tagged := 0
	for _, q := range a.Questions {
		if q.Topic != "" {
			tagged++
		}
	}
	if tagged != len(a.Questions) {
		t.Fatalf("%d/%d questions tagged with a sub-domain", tagged, len(a.Questions))
	}
}

func TestTopicBreakdownRenders(t *testing.T) {
	a := build(t)
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		t.Fatal(err)
	}
	conds := []llmsim.Condition{llmsim.CondBaseline, llmsim.CondRTFocused}
	m, err := eval.Run(a.SyntheticSetup(), []*llmsim.Profile{prof}, conds)
	if err != nil {
		t.Fatal(err)
	}
	out := eval.RenderTopicBreakdown(m.Rows[0], conds, 1)
	if out == "" {
		t.Fatal("empty breakdown")
	}
	// Totals per condition must sum to the benchmark size.
	for _, cond := range conds {
		sum := 0
		for _, tc := range m.Rows[0].Cells[cond].ByTopic {
			sum += tc.Total
		}
		if sum != len(a.Questions) {
			t.Fatalf("%s: topic totals %d != %d", cond, sum, len(a.Questions))
		}
	}
}
