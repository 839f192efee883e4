package spdf

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rng"
)

func sampleDocs(t testing.TB, n int) []*corpus.Document {
	t.Helper()
	kb := corpus.Build(42, 20)
	g := corpus.NewGenerator(kb, 7)
	docs := make([]*corpus.Document, n)
	for i := range docs {
		kind := corpus.FullPaper
		if i%3 == 2 {
			kind = corpus.AbstractOnly
		}
		docs[i] = g.GenerateDoc(kind, i)
	}
	return docs
}

func TestRoundTrip(t *testing.T) {
	for _, d := range sampleDocs(t, 10) {
		data := Encode(d)
		p, err := Parse(data)
		if err != nil {
			t.Fatalf("doc %s: %v", d.ID, err)
		}
		if p.Text != d.Text() {
			t.Fatalf("doc %s: text mismatch", d.ID)
		}
		if p.Meta.DocID != d.ID {
			t.Fatalf("DocID %q vs %q", p.Meta.DocID, d.ID)
		}
		if p.Meta.Title != d.Title {
			t.Fatalf("Title %q vs %q", p.Meta.Title, d.Title)
		}
		if len(p.Meta.Authors) != len(d.Authors) {
			t.Fatalf("authors %v vs %v", p.Meta.Authors, d.Authors)
		}
		if p.Meta.Year != d.Year {
			t.Fatalf("year %d vs %d", p.Meta.Year, d.Year)
		}
		if !p.HasChecksum || !p.ChecksumOK {
			t.Fatalf("checksum not validated: has=%v ok=%v", p.HasChecksum, p.ChecksumOK)
		}
		wantKind := "full"
		if d.Kind == corpus.AbstractOnly {
			wantKind = "abstract"
		}
		if p.Meta.Kind != wantKind {
			t.Fatalf("kind %q", p.Meta.Kind)
		}
	}
}

func TestEscaping(t *testing.T) {
	d := sampleDocs(t, 1)[0]
	d.Title = `Dose (Gy) effects \ with parens (nested (deep))`
	p, err := Parse(Encode(d))
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta.Title != d.Title {
		t.Fatalf("escaped title %q vs %q", p.Meta.Title, d.Title)
	}
}

func TestCorruptionClasses(t *testing.T) {
	d := sampleDocs(t, 1)[0]
	clean := Encode(d)
	r := rng.New(1)
	cases := []struct {
		class    ErrorClass
		wantText bool // salvageable text expected
	}{
		{ErrBadHeader, false},
		{ErrNoMeta, false},
		{ErrBadMeta, false},
		{ErrNoStream, false},
		{ErrTruncated, true},
		{ErrBadChecksum, true},
	}
	for _, tc := range cases {
		data := Corrupt(clean, tc.class, r)
		p, err := Parse(data)
		if err == nil {
			t.Fatalf("class %s: no error", tc.class)
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("class %s: error type %T", tc.class, err)
		}
		if pe.Class != tc.class {
			t.Fatalf("injected %s, detected %s", tc.class, pe.Class)
		}
		if tc.wantText {
			if p == nil || p.Text == "" {
				t.Fatalf("class %s: expected salvaged text", tc.class)
			}
		}
	}
}

func TestTruncatedSalvage(t *testing.T) {
	d := sampleDocs(t, 1)[0]
	data := Corrupt(Encode(d), ErrTruncated, rng.New(2))
	p, err := Parse(data)
	if err == nil {
		t.Fatal("truncated parse succeeded")
	}
	if p == nil || len(p.Text) == 0 {
		t.Fatal("no salvage")
	}
	if !strings.HasPrefix(d.Text(), p.Text[:min(len(p.Text), 50)]) {
		t.Fatal("salvaged text is not a prefix of the original")
	}
}

func TestParseEmptyInput(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Fatal("nil input parsed")
	}
	if _, err := Parse([]byte("random garbage")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestParseAllIsolation(t *testing.T) {
	docs := sampleDocs(t, 20)
	r := rng.New(3)
	payloads := make([][]byte, len(docs))
	names := make([]string, len(docs))
	for i, d := range docs {
		payloads[i] = Encode(d)
		names[i] = d.ID + ".spdf"
	}
	// Corrupt a third of them with rotating classes.
	classes := []ErrorClass{ErrBadHeader, ErrTruncated, ErrBadChecksum, ErrNoStream}
	corrupted := 0
	for i := 0; i < len(payloads); i += 3 {
		payloads[i] = Corrupt(payloads[i], classes[corrupted%len(classes)], r)
		corrupted++
	}
	results, rep := ParseAll(payloads, names, 4)
	if rep.Total != len(docs) {
		t.Fatalf("report total %d", rep.Total)
	}
	if rep.OK != len(docs)-corrupted {
		t.Fatalf("OK %d, want %d", rep.OK, len(docs)-corrupted)
	}
	if rep.OK+rep.Salvaged+rep.Failed != rep.Total {
		t.Fatalf("report does not partition: %+v", rep)
	}
	for i, res := range results {
		if res.Path != names[i] {
			t.Fatal("result order not preserved")
		}
		if i%3 != 0 && res.Err != nil {
			t.Fatalf("clean doc %d errored: %v", i, res.Err)
		}
	}
}

func TestParseAllWorkerCounts(t *testing.T) {
	docs := sampleDocs(t, 9)
	payloads := make([][]byte, len(docs))
	names := make([]string, len(docs))
	for i, d := range docs {
		payloads[i] = Encode(d)
		names[i] = d.ID
	}
	for _, workers := range []int{0, 1, 3, 16} {
		_, rep := ParseAll(payloads, names, workers)
		if rep.OK != len(docs) {
			t.Fatalf("workers=%d: OK=%d", workers, rep.OK)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	d := sampleDocs(b, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(d)
	}
}

func BenchmarkParse(b *testing.B) {
	data := Encode(sampleDocs(b, 1)[0])
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Parse(data)
	}
}

func BenchmarkParseAllParallel(b *testing.B) {
	docs := sampleDocs(b, 200)
	payloads := make([][]byte, len(docs))
	names := make([]string, len(docs))
	for i, d := range docs {
		payloads[i] = Encode(d)
		names[i] = d.ID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ParseAll(payloads, names, 0)
	}
}
