package corpus

import (
	"fmt"
	"strings"

	"repro/internal/rng"
)

// DocKind distinguishes full-text papers from abstract-only records, the two
// document classes the paper's Semantic Scholar download produced (14,115
// full texts, 8,433 abstracts).
type DocKind int

const (
	// FullPaper is a multi-section article.
	FullPaper DocKind = iota
	// AbstractOnly is a title + abstract record.
	AbstractOnly
)

// Section is one titled block of paragraphs.
type Section struct {
	Title      string
	Paragraphs []string
}

// Document is a synthetic scientific article with ground-truth fact
// provenance: FactSpans records which facts each section's text realises.
type Document struct {
	ID       string
	Kind     DocKind
	Title    string
	Authors  []string
	Year     int
	Topic    int
	Abstract string
	Sections []Section
	// Facts lists every FactID whose sentence appears in the document, in
	// order of first appearance. This is the ground truth used to score
	// retrieval quality downstream.
	Facts []FactID
}

// Text renders the full plain text of the document in reading order.
func (d *Document) Text() string {
	var b strings.Builder
	b.WriteString(d.Title)
	b.WriteString("\n\n")
	b.WriteString("Abstract. ")
	b.WriteString(d.Abstract)
	b.WriteString("\n\n")
	for _, s := range d.Sections {
		b.WriteString(s.Title)
		b.WriteString("\n")
		for _, p := range s.Paragraphs {
			b.WriteString(p)
			b.WriteString("\n\n")
		}
	}
	return b.String()
}

// Generator samples documents from a knowledge base. Topic popularity is
// Zipf-distributed, mirroring the skew of real keyword-query corpora.
type Generator struct {
	KB   *KB
	zipf *rng.Zipf
	root *rng.Source
}

// NewGenerator returns a deterministic document generator.
func NewGenerator(kb *KB, seed uint64) *Generator {
	return &Generator{
		KB:   kb,
		zipf: rng.NewZipf(len(kb.Topics), 0.9),
		root: rng.New(seed).Split("docs"),
	}
}

var (
	surnames = []string{
		"Chen", "Martinez", "Okafor", "Schmidt", "Tanaka", "Kowalski",
		"Rossi", "Novak", "Petrov", "Kim", "Gupta", "Haddad", "Larsen",
		"Moreau", "Silva", "Yilmaz", "Janssen", "OBrien", "Costa", "Weber",
	}
	titleTemplates = []string{
		"%s in %s: implications for %s",
		"The role of %s in %s",
		"Targeting %s to modulate %s in %s",
		"%s and %s: a mechanistic study",
		"Modulation of %s by %s in preclinical models of %s",
	}
	fillerSentences = []string{
		"These findings were consistent across all replicates examined.",
		"Further validation in independent cohorts remains warranted.",
		"The experimental design followed established institutional protocols.",
		"Statistical significance was assessed with two-sided tests at alpha 0.05.",
		"Prior reports have described broadly concordant observations.",
		"Taken together, the data support a coherent mechanistic model.",
		"Limitations include sample size and single-institution accrual.",
		"The assay conditions were optimized in pilot experiments.",
		"Dose-response relationships were examined across the tested range.",
		"These observations motivate prospective clinical evaluation.",
	}
	sectionTitles = []string{"1 Introduction", "2 Materials and Methods", "3 Results", "4 Discussion", "5 Conclusions"}
)

// GenerateDoc produces the idx-th document of the given kind. The same
// (kb, seed, kind, idx) always yields an identical document.
func (g *Generator) GenerateDoc(kind DocKind, idx int) *Document {
	r := g.root.SplitN(fmt.Sprintf("doc-%d", kind), idx)
	topicIdx := g.zipf.Sample(r)
	topic := g.KB.Topics[topicIdx]

	// Sample this document's facts: mostly from its topic, a few from a
	// random other topic (papers cite across subfields).
	nFacts := 4 + r.Intn(6)
	if kind == AbstractOnly {
		nFacts = 2 + r.Intn(2)
	}
	var facts []*Fact
	seen := map[FactID]bool{}
	for len(facts) < nFacts {
		src := topic
		if r.Bool(0.15) {
			src = g.KB.Topics[r.Intn(len(g.KB.Topics))]
		}
		if len(src.Facts) == 0 {
			continue
		}
		f := src.Facts[r.Intn(len(src.Facts))]
		if !seen[f.ID] {
			seen[f.ID] = true
			facts = append(facts, f)
		}
	}

	doc := &Document{
		ID:    fmt.Sprintf("%s-%06d", kindPrefix(kind), idx),
		Kind:  kind,
		Topic: topicIdx,
		Year:  2015 + r.Intn(10),
	}
	// Title references the first fact's subject/object plus the topic.
	f0 := facts[0]
	tpl := titleTemplates[r.Intn(len(titleTemplates))]
	switch strings.Count(tpl, "%s") {
	case 2:
		doc.Title = fmt.Sprintf(tpl, f0.Subject, topic.Name)
	default:
		doc.Title = fmt.Sprintf(tpl, f0.Subject, topic.Name, f0.Object)
	}
	nAuth := 2 + r.Intn(5)
	for i := 0; i < nAuth; i++ {
		doc.Authors = append(doc.Authors, surnames[r.Intn(len(surnames))])
	}
	for _, f := range facts {
		doc.Facts = append(doc.Facts, f.ID)
	}

	// Abstract: topic framing + the first couple of fact sentences.
	var ab strings.Builder
	fmt.Fprintf(&ab, "We investigated %s in the context of %s. ", f0.Subject, topic.Name)
	for _, f := range facts[:min(2, len(facts))] {
		ab.WriteString(f.Sentence())
		ab.WriteString(" ")
	}
	ab.WriteString(fillerSentences[r.Intn(len(fillerSentences))])
	doc.Abstract = strings.TrimSpace(ab.String())

	if kind == AbstractOnly {
		return doc
	}

	// Full paper: distribute fact sentences across sections, padded with
	// topic-flavoured filler so chunking has realistic material.
	perSection := splitFacts(facts, len(sectionTitles), r)
	for si, title := range sectionTitles {
		sec := Section{Title: title}
		nPara := 1 + r.Intn(3)
		sf := perSection[si]
		for p := 0; p < nPara; p++ {
			var para strings.Builder
			fmt.Fprintf(&para, "In the setting of %s, several observations are salient. ", topic.Name)
			// Fact sentences assigned to this paragraph.
			for fi, f := range sf {
				if fi%nPara == p {
					para.WriteString(f.Sentence())
					para.WriteString(" ")
				}
			}
			nFill := 2 + r.Intn(4)
			for k := 0; k < nFill; k++ {
				para.WriteString(fillerSentences[r.Intn(len(fillerSentences))])
				para.WriteString(" ")
			}
			sec.Paragraphs = append(sec.Paragraphs, strings.TrimSpace(para.String()))
		}
		doc.Sections = append(doc.Sections, sec)
	}
	return doc
}

func splitFacts(facts []*Fact, nSections int, r *rng.Source) [][]*Fact {
	out := make([][]*Fact, nSections)
	for _, f := range facts {
		// Results and Discussion get most facts, as in real papers.
		weights := []float64{1, 0.5, 3, 2, 0.7}
		s := r.Categorical(weights[:nSections])
		out[s] = append(out[s], f)
	}
	return out
}

func kindPrefix(k DocKind) string {
	if k == AbstractOnly {
		return "abs"
	}
	return "paper"
}

// CorpusSpec describes how many documents to generate; the paper's full
// scale is {Papers: 14115, Abstracts: 8433}.
type CorpusSpec struct {
	Papers    int
	Abstracts int
}

// FullScale is the paper's corpus size.
var FullScale = CorpusSpec{Papers: 14115, Abstracts: 8433}

// Scaled returns the spec multiplied by f (minimum one document of each
// kind), used to run the pipeline at reduced cost with identical shape.
func (s CorpusSpec) Scaled(f float64) CorpusSpec {
	p := int(float64(s.Papers) * f)
	a := int(float64(s.Abstracts) * f)
	if p < 1 {
		p = 1
	}
	if a < 1 {
		a = 1
	}
	return CorpusSpec{Papers: p, Abstracts: a}
}

// Total returns the document count.
func (s CorpusSpec) Total() int { return s.Papers + s.Abstracts }

// GenerateAll produces the whole corpus per spec, full papers first then
// abstracts, deterministically.
func (g *Generator) GenerateAll(spec CorpusSpec) []*Document {
	docs := make([]*Document, 0, spec.Total())
	for i := 0; i < spec.Papers; i++ {
		docs = append(docs, g.GenerateDoc(FullPaper, i))
	}
	for i := 0; i < spec.Abstracts; i++ {
		docs = append(docs, g.GenerateDoc(AbstractOnly, i))
	}
	return docs
}
