package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one layer call the benchmark made (or, for serve/router stages,
// one entry of the timeline the server returned), on the run's own clock.
// Spans of one op share its Op index; Op is -1 for set-up and library calls.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// recorder keeps spans in memory until the run ends. A nil recorder (the
// untraced run) records nothing; every method is safe on it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, parent, opIdx int, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	s := start.Sub(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: opIdx, Name: name,
		StartUS: s, EndUS: s + d.Microseconds()})
	return id
}

// begin opens a span whose id children can name as their parent before it
// ends; the returned func closes it. On a nil recorder both do nothing.
func (r *recorder) begin(name string, parent int) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	id = r.add(name, parent, -1, time.Now(), 0)
	return id, func() {
		now := time.Since(r.t0).Microseconds()
		r.mu.Lock()
		r.spans[id-1].EndUS = now
		r.mu.Unlock()
	}
}

// timed runs fn, records it as a set-up/library span under parent when
// tracing, and always returns how long it took.
func (r *recorder) timed(name string, parent int, fn func()) (time.Duration, int) {
	start := time.Now()
	fn()
	d := time.Since(start)
	return d, r.add(name, parent, -1, start, d)
}

// selfTime is one span name's aggregate: total duration and the part of it
// not covered by child spans.
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalUS int64  `json:"total_us"`
	SelfUS  int64  `json:"self_us"`
}

// selfTimes computes, per span name, duration minus the part of each
// span's interval that its children cover (children may overlap — shard
// spans run in parallel — so coverage is the union of their intervals).
func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.EndUS - s.StartUS
		a.Count++
		a.TotalUS += dur
		a.SelfUS += dur - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalUS > out[j].TotalUS })
	return out
}

// covered is the length of the union of kids' intervals clipped to parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, k := range kids {
		s, e := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if e <= s {
			continue
		}
		if curE < curS || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload     string     `json:"workload"`
	Seed         uint64     `json:"seed"`
	SequenceHash string     `json:"sequence_hash,omitempty"`
	Note         string     `json:"note"`
	SelfTime     []selfTime `json:"self_time"`
	Spans        []span     `json:"spans"`
}

// write dumps the recorded spans to <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string, seed uint64, seqHash string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output dir: %w", err)
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, SequenceHash: seqHash,
		Note:     fmt.Sprintf("self_time covers every recorded span; per-op timelines are recorded for the first %d measured ops", tracedOpSpans),
		SelfTime: selfTimes(spans), Spans: spans}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
