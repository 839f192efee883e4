// Package tokenizer provides word and sentence tokenization, vocabulary
// management, and token-budget accounting.
//
// The paper's pipeline must respect the small context windows of its
// evaluated models (2,048 tokens for OLMo-7B and TinyLlama up to 128K for
// Gemma 3); semantic chunking and RAG prompt assembly both count tokens
// through this package. Tokenization is whitespace/punctuation based with a
// deterministic subword fallback so counts are stable across runs.
package tokenizer

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single lexical unit with its normalized form.
type Token struct {
	Text string // original surface form
	Norm string // lowercased normalized form used for hashing/matching
}

// Tokenize splits text into word tokens. Punctuation characters form their
// own single-rune tokens; alphanumeric runs (including internal hyphens and
// apostrophes, as in "non-small" or "p53's") stay together.
func Tokenize(text string) []Token {
	est := len(text) / 6
	if est < 8 {
		est = 8
	}
	tokens := make([]Token, 0, est)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			t := b.String()
			tokens = append(tokens, Token{Text: t, Norm: strings.ToLower(t)})
			b.Reset()
		}
	}
	runes := []rune(text)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case (r == '-' || r == '\'' || r == '.') && b.Len() > 0 && i+1 < len(runes) &&
			(unicode.IsLetter(runes[i+1]) || unicode.IsDigit(runes[i+1])):
			// Keep intra-word hyphens, apostrophes, and decimal points:
			// "non-small", "p53's", "1.8".
			b.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			tokens = append(tokens, Token{Text: string(r), Norm: string(r)})
		}
	}
	flush()
	return tokens
}

// Words returns just the normalized word forms (no punctuation tokens).
//
// It is Tokenize's state machine run over the string in place, keeping the
// Norm of every token whose first byte, read as a Latin-1 code point, is a
// letter or digit. A word token is a contiguous run of text, so its form is
// a lowercased substring of text (no copy unless lowercasing changes it).
// The byte test also keeps most non-ASCII punctuation tokens ("—", "©" and
// U+FFFD, which stands in for an invalid byte) and drops words whose
// lowercased lead byte is 0xD7 (most of Hebrew); callers' vectors depend
// on exactly this output, so it is kept.
func Words(text string) []string {
	out := make([]string, 0, len(text)/6+1)
	keep := func(norm string) {
		if c := rune(norm[0]); unicode.IsLetter(c) || unicode.IsDigit(c) {
			out = append(out, norm)
		}
	}
	start := -1
	flush := func(end int) {
		if start >= 0 {
			keep(strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
		case (r == '-' || r == '\'' || r == '.') && start >= 0 && wordRuneAt(text, i+1):
			// Intra-word joiner, as in NumTokens.
		case unicode.IsSpace(r):
			flush(i)
		default:
			flush(i)
			if r >= utf8.RuneSelf { // ASCII punctuation never passes keep
				keep(string(r))
			}
		}
	}
	flush(len(text))
	return out
}

// NumTokens returns len(Tokenize(text)) without building the tokens: the
// same state machine run over the string in place, with no rune slice, no
// builder and no lowercasing, so it allocates nothing. Counts of texts that
// are joined by whitespace add up to the count of the joined text, which is
// what lets prompt assembly count each part once.
func NumTokens(text string) int {
	n := 0
	inWord := false
	for i, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			inWord = true
		case (r == '-' || r == '\'' || r == '.') && inWord && wordRuneAt(text, i+1):
			// Intra-word hyphen, apostrophe or decimal point (all one byte
			// wide, so the next rune starts at i+1): the word continues.
		case unicode.IsSpace(r):
			if inWord {
				n++
				inWord = false
			}
		default:
			if inWord {
				n++
				inWord = false
			}
			n++
		}
	}
	if inWord {
		n++
	}
	return n
}

// wordRuneAt reports whether a letter or digit starts at byte offset i.
func wordRuneAt(text string, i int) bool {
	if i >= len(text) {
		return false
	}
	r, _ := utf8.DecodeRuneInString(text[i:])
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// LLMTokens converts a word-token count into the approximate LLM token
// count. Real BPE tokenizers emit roughly 1.3 tokens per English word; we
// apply the same expansion so context-budget math is comparable to the
// paper's setting.
func LLMTokens(n int) int { return n + n/3 }

// CountTokens approximates the LLM token count of text. It allocates
// nothing.
func CountTokens(text string) int { return LLMTokens(NumTokens(text)) }

// sentenceEnd reports whether the token at position i in toks terminates a
// sentence. It guards against splitting at common scientific abbreviations
// and initials.
var abbreviations = map[string]bool{
	"fig": true, "figs": true, "eq": true, "eqs": true, "ref": true,
	"refs": true, "et": true, "al": true, "e.g": true, "i.e": true,
	"vs": true, "dr": true, "prof": true, "no": true, "vol": true,
	"approx": true, "ca": true, "cf": true, "resp": true,
}

// SplitSentences segments text into sentences. The segmenter is rule-based:
// it splits on '.', '!', '?' followed by whitespace and an uppercase letter
// or digit, except after known abbreviations or single-letter initials.
func SplitSentences(text string) []string {
	var sentences []string
	runes := []rune(text)
	start := 0
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		if r != '.' && r != '!' && r != '?' {
			continue
		}
		// Must be followed by whitespace then uppercase/digit (or EOF).
		j := i + 1
		for j < len(runes) && runes[j] == r {
			j++ // collapse "..." / "?!"
		}
		if j < len(runes) && !unicode.IsSpace(runes[j]) {
			continue
		}
		k := j
		for k < len(runes) && unicode.IsSpace(runes[k]) {
			k++
		}
		if k < len(runes) && !unicode.IsUpper(runes[k]) && !unicode.IsDigit(runes[k]) {
			continue
		}
		if r == '.' {
			// Check the word preceding the period.
			w := lastWord(runes[start:i])
			if abbreviations[strings.ToLower(w)] || len(w) == 1 {
				continue
			}
		}
		s := strings.TrimSpace(string(runes[start:j]))
		if s != "" {
			sentences = append(sentences, s)
		}
		start = k
		i = k - 1
	}
	if tail := strings.TrimSpace(string(runes[start:])); tail != "" {
		sentences = append(sentences, tail)
	}
	return sentences
}

func lastWord(runes []rune) string {
	end := len(runes)
	for end > 0 && unicode.IsSpace(runes[end-1]) {
		end--
	}
	start := end
	for start > 0 && (unicode.IsLetter(runes[start-1]) || runes[start-1] == '.') {
		start--
	}
	return string(runes[start:end])
}

// NGrams returns the character n-grams of a word padded with boundary
// markers, the feature unit of the hashing embedder in internal/embed.
func NGrams(word string, n int) []string {
	padded := "^" + word + "$"
	runes := []rune(padded)
	if len(runes) < n {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}

// Vocab is a bidirectional string↔id mapping with frequency counts. It is
// not safe for concurrent mutation; build once, then share read-only.
type Vocab struct {
	ids   map[string]int
	words []string
	count []int
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]int)}
}

// Add inserts word (or bumps its count) and returns its id.
func (v *Vocab) Add(word string) int {
	if id, ok := v.ids[word]; ok {
		v.count[id]++
		return id
	}
	id := len(v.words)
	v.ids[word] = id
	v.words = append(v.words, word)
	v.count = append(v.count, 1)
	return id
}

// ID returns the id of word and whether it is present.
func (v *Vocab) ID(word string) (int, bool) {
	id, ok := v.ids[word]
	return id, ok
}

// Word returns the surface form for id.
func (v *Vocab) Word(id int) string { return v.words[id] }

// Count returns the observed frequency of id.
func (v *Vocab) Count(id int) int { return v.count[id] }

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.words) }

// Truncate fits text within maxTokens (approximate LLM tokens), cutting at a
// word boundary. It returns text unchanged when it already fits. RAG prompt
// assembly uses this to respect each model's context window.
func Truncate(text string, maxTokens int) string {
	if CountTokens(text) <= maxTokens {
		return text
	}
	// Binary search the longest word-prefix that fits.
	words := strings.Fields(text)
	lo, hi := 0, len(words)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if CountTokens(strings.Join(words[:mid], " ")) <= maxTokens {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return strings.Join(words[:lo], " ")
}
