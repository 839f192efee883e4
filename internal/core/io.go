package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/mcq"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

// Artifact persistence: a generation run saves its outputs once and any
// number of evaluation runs reload them, the separation the paper's
// HPC campaign model needs (generation on big allocations, evaluation
// wherever). Layout under one directory:
//
//	manifest.json     config + counts (validated on load)
//	questions.jsonl   the filtered benchmark (Figure 2 records)
//	traces.jsonl      all reasoning traces (Figure 3 records)
//	chunks.jsonl      chunk texts + provenance
//	chunks.vsf        FP16 chunk embedding index
//	traces_<mode>.vsf FP16 trace embedding indexes (3 files)

type manifest struct {
	Config    Config `json:"config"`
	Questions int    `json:"questions"`
	Traces    int    `json:"traces"`
	Chunks    int    `json:"chunks"`
	Dim       int    `json:"dim"`
}

// Save writes all artifacts to dir (created if needed).
func (a *Artifacts) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := mcq.SaveQuestions(filepath.Join(dir, "questions.jsonl"), a.Questions); err != nil {
		return err
	}
	if err := mcq.SaveTraces(filepath.Join(dir, "traces.jsonl"), a.Traces); err != nil {
		return err
	}
	if err := saveChunks(filepath.Join(dir, "chunks.jsonl"), a.Chunks); err != nil {
		return err
	}
	if err := a.ChunkStore.SaveIndex(filepath.Join(dir, "chunks.vsf")); err != nil {
		return err
	}
	for mode, ts := range a.TraceStores {
		if err := ts.SaveIndex(filepath.Join(dir, "traces_"+string(mode)+".vsf")); err != nil {
			return err
		}
	}
	m := manifest{
		Config:    a.Config,
		Questions: len(a.Questions),
		Traces:    len(a.Traces),
		Chunks:    len(a.Chunks),
		Dim:       a.Stats.EmbeddingDim,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// Load reconstructs artifacts from dir. The knowledge base is rebuilt
// deterministically from the saved config (it is a pure function of the
// seed); retrieval stores are rebuilt from the persisted chunk index and
// by re-embedding traces (embedding is deterministic, so the result is
// identical to the generation run's stores).
func Load(dir string) (*Artifacts, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("core: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: manifest: %w", err)
	}
	questions, err := mcq.LoadQuestions(filepath.Join(dir, "questions.jsonl"))
	if err != nil {
		return nil, err
	}
	traces, err := mcq.LoadTraces(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		return nil, err
	}
	chunks, err := loadChunks(filepath.Join(dir, "chunks.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(questions) != m.Questions || len(traces) != m.Traces || len(chunks) != m.Chunks {
		return nil, fmt.Errorf("core: artifact counts disagree with manifest (%d/%d/%d vs %d/%d/%d)",
			len(questions), len(traces), len(chunks), m.Questions, m.Traces, m.Chunks)
	}
	flat, err := vecstore.LoadFlat(filepath.Join(dir, "chunks.vsf"))
	if err != nil {
		return nil, err
	}
	if flat.Len() != len(chunks) {
		return nil, fmt.Errorf("core: chunk index holds %d vectors for %d chunks", flat.Len(), len(chunks))
	}
	enc := embed.NewDefault()
	if flat.Dim() != enc.Dim() {
		return nil, fmt.Errorf("core: chunk index dim %d, encoder dim %d", flat.Dim(), enc.Dim())
	}
	kb := corpus.Build(m.Config.Seed, m.Config.FactsPerTopic)
	chunkStore := rag.WrapChunkStore(enc, flat, chunks)
	// Trace stores: load persisted per-mode indexes when present (the
	// paper's three separate FAISS databases); when one is absent,
	// re-embed that mode's traces, which is deterministic and yields an
	// identical store. An index that exists but does not load, or whose
	// size is not its mode's trace count, is an error: wrapped, it would
	// answer every query with nothing.
	traceStores := make(map[mcq.ReasoningMode]*rag.TraceStore, len(mcq.AllModes))
	for _, mode := range mcq.AllModes {
		path := filepath.Join(dir, "traces_"+string(mode)+".vsf")
		ix, err := vecstore.LoadFlat(path)
		if errors.Is(err, fs.ErrNotExist) {
			traceStores[mode] = rag.BuildTraceStore(enc, mode, traces, m.Config.Workers)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s trace index: %w", mode, err)
		}
		n := 0
		for _, tr := range traces {
			if tr.Mode == mode {
				n++
			}
		}
		if ix.Len() != n || ix.Dim() != enc.Dim() {
			return nil, fmt.Errorf("core: %s trace index holds %d vectors of dim %d for %d traces of dim %d",
				mode, ix.Len(), ix.Dim(), n, enc.Dim())
		}
		traceStores[mode] = rag.WrapTraceStore(enc, mode, ix, traces)
	}

	a := &Artifacts{
		Config:      m.Config,
		KB:          kb,
		Chunks:      chunks,
		Questions:   questions,
		Traces:      traces,
		ChunkStore:  chunkStore,
		TraceStores: traceStores,
		Stats: Stats{
			Chunks:          len(chunks),
			Accepted:        len(questions),
			Traces:          len(traces),
			EmbeddingDim:    enc.Dim(),
			ChunkStoreBytes: chunkStore.MemoryBytes(),
		},
	}
	return a, nil
}

func saveChunks(path string, chunks []chunk.Chunk) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range chunks {
		if err = enc.Encode(&chunks[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err = w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func loadChunks(path string) ([]chunk.Chunk, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []chunk.Chunk
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var c chunk.Chunk
		if err := json.Unmarshal(line, &c); err != nil {
			return nil, fmt.Errorf("core: %s: %w", path, err)
		}
		out = append(out, c)
	}
	return out, sc.Err()
}
