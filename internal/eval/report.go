package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/rag"
	"repro/internal/stats"
	"repro/internal/vecstore"
)

// Rendering of the paper's tables and figures. Tables are markdown; the
// figures (percent-improvement bar charts, Figures 4-6) are ASCII bars so a
// terminal run shows the same comparison the paper plots.

// RenderTable1 prints the model roster (paper Table 1).
func RenderTable1(profiles []*llmsim.Profile) string {
	var b strings.Builder
	b.WriteString("| Model Name | Params | Release Year | Context Window |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range profiles {
		fmt.Fprintf(&b, "| %s | %s | %d | %s |\n",
			p.Name, p.Params, p.ReleaseYear, formatInt(p.ContextWindow))
	}
	return b.String()
}

func formatInt(n int) string {
	s := fmt.Sprint(n)
	if n < 10000 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}

// RenderTable2 prints the synthetic-benchmark accuracy table (paper
// Table 2): all five conditions, best cell per row in bold.
func RenderTable2(m *Matrix) string {
	conds := SortedConditions(m.Conditions)
	var b strings.Builder
	b.WriteString("| Model |")
	for _, c := range conds {
		fmt.Fprintf(&b, " %s |", condLabel(c))
	}
	b.WriteString("\n|---|")
	for range conds {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range m.Rows {
		best := bestCondition(row, conds)
		fmt.Fprintf(&b, "| %s |", row.Model)
		for _, c := range conds {
			cell, ok := row.Cells[c]
			if !ok {
				b.WriteString(" — |")
				continue
			}
			if c == best {
				fmt.Fprintf(&b, " **%.3f** |", cell.Accuracy)
			} else {
				fmt.Fprintf(&b, " %.3f |", cell.Accuracy)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderAstroTable prints an Astro-style table (paper Tables 3-4):
// baseline, chunks, and the best reasoning-trace condition per model.
func RenderAstroTable(m *Matrix, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	b.WriteString("| Model | Baseline | RAG–Chunks | RAG–RTs (best) |\n|---|---|---|---|\n")
	for _, row := range m.Rows {
		base := row.Cells[llmsim.CondBaseline]
		chunks := row.Cells[llmsim.CondChunks]
		best := row.Best()
		cols := []*Cell{base, chunks, best}
		// Bold the best of the three.
		bi := 0
		for i, c := range cols {
			if c != nil && (cols[bi] == nil || c.Accuracy > cols[bi].Accuracy) {
				bi = i
			}
		}
		fmt.Fprintf(&b, "| %s |", row.Model)
		for i, c := range cols {
			if c == nil {
				b.WriteString(" — |")
				continue
			}
			if i == bi {
				fmt.Fprintf(&b, " **%.3f** |", c.Accuracy)
			} else {
				fmt.Fprintf(&b, " %.3f |", c.Accuracy)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Improvement is one model's bar pair in a Figures-4-6-style chart.
type Improvement struct {
	Model      string
	VsBaseline float64 // percent
	VsChunks   float64 // percent
	BestMode   llmsim.Condition
}

// Improvements computes the percent accuracy improvement of the best
// reasoning-trace condition over baseline and over chunk retrieval, per
// model — the quantities plotted in Figures 4, 5 and 6.
func Improvements(m *Matrix) []Improvement {
	var out []Improvement
	for _, row := range m.Rows {
		base, okB := row.Cells[llmsim.CondBaseline]
		chunks, okC := row.Cells[llmsim.CondChunks]
		best := row.Best()
		if !okB || !okC || best == nil {
			continue
		}
		out = append(out, Improvement{
			Model:      row.Model,
			VsBaseline: stats.RelImprovement(base.Accuracy, best.Accuracy),
			VsChunks:   stats.RelImprovement(chunks.Accuracy, best.Accuracy),
			BestMode:   best.Condition,
		})
	}
	return out
}

// RenderFigure draws the percent-improvement chart as ASCII bars.
func RenderFigure(m *Matrix, title string) string {
	imps := Improvements(m)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	maxAbs := 1.0
	for _, im := range imps {
		maxAbs = max3(maxAbs, abs(im.VsBaseline), abs(im.VsChunks))
	}
	const width = 46
	for _, im := range imps {
		fmt.Fprintf(&b, "%-26s\n", im.Model)
		fmt.Fprintf(&b, "  vs baseline %+7.1f%% %s\n", im.VsBaseline, bar(im.VsBaseline, maxAbs, width))
		fmt.Fprintf(&b, "  vs chunks   %+7.1f%% %s\n", im.VsChunks, bar(im.VsChunks, maxAbs, width))
	}
	return b.String()
}

func bar(v, maxAbs float64, width int) string {
	n := int(abs(v) / maxAbs * float64(width))
	if n == 0 && v != 0 {
		n = 1
	}
	if v < 0 {
		return strings.Repeat("░", n) + " (worse)"
	}
	return strings.Repeat("█", n)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func condLabel(c llmsim.Condition) string {
	switch c {
	case llmsim.CondBaseline:
		return "Baseline"
	case llmsim.CondChunks:
		return "RAG-Chunks"
	case llmsim.CondRTDetail:
		return "RAG-RT-Detail"
	case llmsim.CondRTFocused:
		return "RAG-RT-Focused"
	case llmsim.CondRTEfficient:
		return "RAG-RT-Efficient"
	}
	return string(c)
}

func bestCondition(row *Row, conds []llmsim.Condition) llmsim.Condition {
	var best llmsim.Condition
	bestAcc := -1.0
	for _, c := range conds {
		if cell, ok := row.Cells[c]; ok && cell.Accuracy > bestAcc {
			best, bestAcc = c, cell.Accuracy
		}
	}
	return best
}

// RenderTopicBreakdown prints per-sub-domain accuracy for one model across
// conditions (the paper's §5 sub-domain organisation plan). Topics are
// sorted by descending question count; only topics with at least minN
// questions appear.
func RenderTopicBreakdown(row *Row, conds []llmsim.Condition, minN int) string {
	// Collect topics from the first available cell.
	var anyCell *Cell
	for _, c := range conds {
		if cell, ok := row.Cells[c]; ok {
			anyCell = cell
			break
		}
	}
	if anyCell == nil {
		return ""
	}
	type topicInfo struct {
		name string
		n    int
	}
	var topics []topicInfo
	for name, tc := range anyCell.ByTopic {
		if tc.Total >= minN {
			topics = append(topics, topicInfo{name, tc.Total})
		}
	}
	sort.Slice(topics, func(i, j int) bool {
		if topics[i].n != topics[j].n {
			return topics[i].n > topics[j].n
		}
		return topics[i].name < topics[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%s — accuracy by sub-domain\n\n", row.Model)
	b.WriteString("| Sub-domain | n |")
	for _, c := range conds {
		fmt.Fprintf(&b, " %s |", condLabel(c))
	}
	b.WriteString("\n|---|---|")
	for range conds {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, tp := range topics {
		label := tp.name
		if label == "" {
			label = "(untagged)"
		}
		fmt.Fprintf(&b, "| %s | %d |", label, tp.n)
		for _, c := range conds {
			cell, ok := row.Cells[c]
			if !ok {
				b.WriteString(" — |")
				continue
			}
			tc := cell.ByTopic[tp.name]
			if tc == nil {
				b.WriteString(" — |")
				continue
			}
			fmt.Fprintf(&b, " %.3f |", tc.Accuracy())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderRetrievalStats prints the retrieval-store configuration table for
// a setup: which index family backs each store and what it costs per
// vector. Together with the accuracy tables this is where the store's
// index and its footprint become visible in an eval report. Stores serve
// an exact Flat; a snapshot over an in-memory HNSW or IVF-PQ (WithIndex)
// renders its own kind, e.g. "IVF-PQ(nlist=64,nprobe=8,m=48,res)".
func RenderRetrievalStats(s *Setup) string {
	var b strings.Builder
	b.WriteString("Retrieval stores\n\n")
	b.WriteString("| Store | Index | Vectors | Dim | Bytes/vec | Total MB |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	writeRow := func(name string, f rag.Facade) {
		sw, ok := f.(rag.Swapper)
		if !ok {
			return // no store, or a remote one without a local index
		}
		st := vecstore.StatsOf(sw.Index())
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %.1f | %.2f |\n",
			name, st.Kind, formatInt(st.Vectors), st.Dim,
			st.BytesPerVector(), float64(st.Bytes)/(1<<20))
	}
	writeRow("chunks", s.Chunks)
	for _, mode := range mcq.AllModes {
		writeRow("traces/"+string(mode), s.Traces[mode])
	}
	return b.String()
}

// RenderCSV exports a matrix for external plotting.
func RenderCSV(m *Matrix) string {
	conds := SortedConditions(m.Conditions)
	var b strings.Builder
	b.WriteString("model")
	for _, c := range conds {
		fmt.Fprintf(&b, ",%s,%s_ci_lo,%s_ci_hi,%s_mean_utility", c, c, c, c)
	}
	b.WriteString("\n")
	for _, row := range m.Rows {
		b.WriteString(csvEscape(row.Model))
		for _, c := range conds {
			cell, ok := row.Cells[c]
			if !ok {
				b.WriteString(",,,,")
				continue
			}
			fmt.Fprintf(&b, ",%.4f,%.4f,%.4f,%.4f", cell.Accuracy, cell.CI.Lo, cell.CI.Hi, cell.MeanUtility)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
