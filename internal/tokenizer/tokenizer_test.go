package tokenizer

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("Radiation induces DNA damage.")
	want := []string{"Radiation", "induces", "DNA", "damage", "."}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	if toks[0].Norm != "radiation" {
		t.Errorf("norm = %q", toks[0].Norm)
	}
}

func TestTokenizeHyphensAndDecimals(t *testing.T) {
	toks := Tokenize("non-small cell dose of 1.8 Gy in p53's pathway")
	words := map[string]bool{}
	for _, tok := range toks {
		words[tok.Text] = true
	}
	for _, w := range []string{"non-small", "1.8", "p53's"} {
		if !words[w] {
			t.Errorf("expected intact token %q in %v", w, toks)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty input gave %v", got)
	}
	if got := Tokenize("   \n\t "); len(got) != 0 {
		t.Fatalf("whitespace input gave %v", got)
	}
}

func TestTokenizePunctuationSeparate(t *testing.T) {
	toks := Tokenize("(p53, ATM)")
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	want := []string{"(", "p53", ",", "ATM", ")"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", texts, want)
	}
}

func TestWordsExcludePunctuation(t *testing.T) {
	w := Words("Hello, world!")
	if len(w) != 2 || w[0] != "hello" || w[1] != "world" {
		t.Fatalf("Words = %v", w)
	}
}

func TestCountTokensExpansion(t *testing.T) {
	n := CountTokens("one two three four five six")
	// 6 words -> 6 + 2 = 8 approximate LLM tokens.
	if n != 8 {
		t.Fatalf("CountTokens = %d, want 8", n)
	}
	if CountTokens("") != 0 {
		t.Fatal("empty text should count 0 tokens")
	}
}

// countCases exercise every branch of the counting state machine against
// the token-building one: Unicode letters and spaces, the three intra-word
// joiners in every position, trailing punctuation, invalid UTF-8 and empty
// input. FuzzCountTokens starts from the same list.
var countCases = []string{
	"",
	"   \n\t ",
	"Radiation induces DNA damage.",
	"non-small cell dose of 1.8 Gy in p53's pathway",
	"(p53, ATM)",
	"trailing-", "trailing'", "trailing.", "-leading", "'leading", ".5 Gy",
	"a--b", "a-'b", "1..8", "x.-y", "end. Next", "e.g. this", "3.", "-", "'", ".",
	"naïve café – Ångström's β-decay… ¿qué?",
	"γ-H2AX foci, 2.5 Gy",
	"细胞 凋亡。放射-治疗",
	"tab\tseparated\u00a0nbsp\u2003emspace",
	"bad\xffutf8-\xfe.\xfd",
	"a-\xff",
	"[1] item one\n[2] item-two.\n\nQuestion: why?\nA) x\nAnswer: ",
}

func TestCountTokensMatchesTokenize(t *testing.T) {
	for _, s := range countCases {
		n := len(Tokenize(s))
		if got := NumTokens(s); got != n {
			t.Errorf("NumTokens(%q) = %d, Tokenize gives %d", s, got, n)
		}
		if got := CountTokens(s); got != n+n/3 {
			t.Errorf("CountTokens(%q) = %d, want %d", s, got, n+n/3)
		}
	}
}

func FuzzCountTokens(f *testing.F) {
	for _, s := range countCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := len(Tokenize(s))
		if got := CountTokens(s); got != n+n/3 {
			t.Fatalf("CountTokens(%q) = %d, Tokenize gives %d tokens, want %d", s, got, n, n+n/3)
		}
	})
}

// wordsReference is Words as it was built on Tokenize, kept verbatim as the
// oracle for the in-place Words.
func wordsReference(text string) []string {
	toks := Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if len(t.Norm) > 0 && (unicode.IsLetter(rune(t.Norm[0])) || unicode.IsDigit(rune(t.Norm[0]))) {
			out = append(out, t.Norm)
		}
	}
	return out
}

// wordsCases add to countCases the inputs where the reference's first-byte
// test and lowercasing matter: uppercase non-ASCII, Hebrew (lead byte 0xD7),
// non-ASCII punctuation, a literal U+FFFD, and runes whose lowercase form
// starts with a different byte (İ, the Kelvin sign).
var wordsCases = append([]string{
	"ÉCOLE Über ΑΒΓ Straße",
	"שלום עולם and ׀ punct",
	"dose — 2 Gy © 2024 ± 0.1 °C µm",
	"literal � replacement",
	"İstanbul Kelvin",
	"NON-SMALL P53'S 1.8",
}, countCases...)

func TestWordsMatchesTokenize(t *testing.T) {
	for _, s := range wordsCases {
		got, want := Words(s), wordsReference(s)
		if strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("Words(%q) = %q, Tokenize gives %q", s, got, want)
		}
	}
}

func FuzzWords(f *testing.F) {
	for _, s := range wordsCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Words(s), wordsReference(s)
		if len(got) != len(want) {
			t.Fatalf("Words(%q) = %q, Tokenize gives %q", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Words(%q) = %q, Tokenize gives %q", s, got, want)
			}
		}
	})
}

func TestSplitSentencesBasic(t *testing.T) {
	s := SplitSentences("Radiation damages DNA. Repair pathways respond quickly! Does apoptosis follow? Yes.")
	if len(s) != 4 {
		t.Fatalf("got %d sentences: %v", len(s), s)
	}
	if !strings.HasPrefix(s[0], "Radiation") || !strings.HasSuffix(s[0], ".") {
		t.Errorf("sentence 0 = %q", s[0])
	}
}

func TestSplitSentencesAbbreviations(t *testing.T) {
	s := SplitSentences("See Fig. 3 for details. As shown by Smith et al. The effect is large.")
	// "Fig. 3" must not split; "et al." must not split.
	if len(s) != 2 {
		t.Fatalf("got %d sentences: %v", len(s), s)
	}
}

func TestSplitSentencesInitials(t *testing.T) {
	s := SplitSentences("J. Smith measured the dose. The result was clear.")
	if len(s) != 2 {
		t.Fatalf("initials split wrongly: %v", s)
	}
}

func TestSplitSentencesDecimalsIntact(t *testing.T) {
	s := SplitSentences("The dose was 1.8 Gy per fraction. Treatment lasted weeks.")
	if len(s) != 2 {
		t.Fatalf("decimal split wrongly: %v", s)
	}
	if !strings.Contains(s[0], "1.8") {
		t.Fatalf("decimal mangled: %q", s[0])
	}
}

func TestSplitSentencesNoTerminator(t *testing.T) {
	s := SplitSentences("a fragment without terminal punctuation")
	if len(s) != 1 {
		t.Fatalf("got %v", s)
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if s := SplitSentences(""); len(s) != 0 {
		t.Fatalf("got %v", s)
	}
}

func TestSplitSentencesEllipsis(t *testing.T) {
	s := SplitSentences("It grew... Then it stopped.")
	if len(s) != 2 {
		t.Fatalf("ellipsis handling: %v", s)
	}
}

// Property: concatenated sentences preserve all non-space characters of the
// input (segmentation must not lose text).
func TestQuickSentencesPreserveText(t *testing.T) {
	strip := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == ' ' || r == '\n' || r == '\t' {
				return -1
			}
			return r
		}, s)
	}
	inputs := []string{
		"Alpha beta. Gamma delta! Epsilon?",
		"One. Two. Three.",
		"No split here",
		"Mixed 1.5 Gy dose. Next sentence.",
	}
	for _, in := range inputs {
		got := strip(strings.Join(SplitSentences(in), ""))
		if got != strip(in) {
			t.Fatalf("text lost: %q -> %q", strip(in), got)
		}
	}
}

func TestNGrams(t *testing.T) {
	g := NGrams("dna", 3)
	want := []string{"^dn", "dna", "na$"}
	if len(g) != len(want) {
		t.Fatalf("NGrams = %v", g)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("NGrams = %v, want %v", g, want)
		}
	}
}

func TestNGramsShortWord(t *testing.T) {
	g := NGrams("a", 5)
	if len(g) != 1 || g[0] != "^a$" {
		t.Fatalf("NGrams short = %v", g)
	}
}

func TestVocab(t *testing.T) {
	v := NewVocab()
	id1 := v.Add("dose")
	id2 := v.Add("fraction")
	id3 := v.Add("dose")
	if id1 != id3 {
		t.Fatal("re-adding gave new id")
	}
	if id1 == id2 {
		t.Fatal("distinct words share id")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Count(id1) != 2 {
		t.Fatalf("Count = %d", v.Count(id1))
	}
	if v.Word(id2) != "fraction" {
		t.Fatalf("Word = %q", v.Word(id2))
	}
	if _, ok := v.ID("absent"); ok {
		t.Fatal("found absent word")
	}
}

func TestTruncateFits(t *testing.T) {
	text := "short text"
	if got := Truncate(text, 100); got != text {
		t.Fatalf("Truncate modified fitting text: %q", got)
	}
}

func TestTruncateCuts(t *testing.T) {
	words := make([]string, 100)
	for i := range words {
		words[i] = "word"
	}
	text := strings.Join(words, " ")
	got := Truncate(text, 40)
	if CountTokens(got) > 40 {
		t.Fatalf("truncated text still %d tokens", CountTokens(got))
	}
	if len(got) == 0 {
		t.Fatal("truncated to nothing")
	}
	if !strings.HasPrefix(text, got) {
		t.Fatal("truncation is not a prefix")
	}
}

// Property: Truncate never exceeds the budget and always returns a prefix.
func TestQuickTruncate(t *testing.T) {
	f := func(nWords uint8, budget uint8) bool {
		n := int(nWords%80) + 1
		b := int(budget%60) + 1
		text := strings.Repeat("alpha ", n)
		text = strings.TrimSpace(text)
		got := Truncate(text, b)
		return CountTokens(got) <= b && strings.HasPrefix(text, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("Ionizing radiation induces double-strand breaks in tumor DNA. ", 50)
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		_ = Tokenize(text)
	}
}

func BenchmarkSplitSentences(b *testing.B) {
	text := strings.Repeat("Ionizing radiation induces breaks. Repair follows quickly. ", 50)
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		_ = SplitSentences(text)
	}
}

var sinkCount int

func BenchmarkCountTokens(b *testing.B) {
	text := strings.Repeat("Ionizing radiation induces double-strand breaks in tumor DNA. ", 50)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCount = CountTokens(text)
	}
}
