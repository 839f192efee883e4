package obs

import (
	"sort"
	"sync"
	"time"
)

// TraceRecord is one completed trace retained by a SlowLog and served at
// GET /debug/slowlog/<route>: the request's id, operation, a truncated
// detail string (the query), wall-clock start, total duration and the full
// span timeline.
type TraceRecord struct {
	TraceID string    `json:"trace_id"`
	Op      string    `json:"op"`
	Detail  string    `json:"detail,omitempty"`
	Start   time.Time `json:"start"`
	TotalUS int64     `json:"total_us"`
	Spans   []Span    `json:"spans"`
}

// maxDetailLen bounds the query text carried per slowlog entry, so a
// pathological request cannot bloat the debug surface.
const maxDetailLen = 160

// SlowLog is a fixed-size, lock-protected buffer of the slowest completed
// traces seen on one route. Record is O(capacity) only when the trace is
// slow enough to retain (a binary-search insert into a slice sorted
// slowest-first); the common fast request is rejected after one
// comparison, so the serving hot path pays a mutex and a compare.
type SlowLog struct {
	mu  sync.Mutex
	cap int
	// entries is sorted by TotalUS descending; the last element is the
	// fastest retained trace and the eviction victim.
	entries []TraceRecord
}

// DefaultSlowLogSize is the retention of every serving route's slowlog.
const DefaultSlowLogSize = 32

// NewSlowLog returns a slowlog retaining the capacity slowest traces
// (capacity <= 0 selects DefaultSlowLogSize).
func NewSlowLog(capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogSize
	}
	return &SlowLog{cap: capacity}
}

// Record completes a trace: its total duration is measured now, and the
// trace is retained iff it ranks among the capacity slowest seen. Safe on
// a nil receiver and with a nil trace (both no-op).
func (l *SlowLog) Record(t *Trace, op, detail string) {
	if l == nil || t == nil {
		return
	}
	total := t.Since().Microseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.cap && total <= l.entries[l.cap-1].TotalUS {
		return
	}
	if len(detail) > maxDetailLen {
		detail = detail[:maxDetailLen] + "…"
	}
	rec := TraceRecord{
		TraceID: t.ID(),
		Op:      op,
		Detail:  detail,
		Start:   t.StartTime().UTC().Truncate(time.Microsecond),
		TotalUS: total,
		Spans:   t.Spans(),
	}
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].TotalUS < total })
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, TraceRecord{})
	}
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = rec
}

// Snapshot returns the retained traces, slowest first.
func (l *SlowLog) Snapshot() []TraceRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TraceRecord(nil), l.entries...)
}

// SlowLogPage is the JSON shape of GET /debug/slowlog/<route>, shared by
// the serve and router tiers.
type SlowLogPage struct {
	Route   string        `json:"route"`
	Slowest []TraceRecord `json:"slowest"`
}
