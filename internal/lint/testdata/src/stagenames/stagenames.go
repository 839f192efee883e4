// Fixture for the stagenames analyzer: span and stage-metric names must
// come from the closed stage taxonomy.
package stagenames

import "time"

// Trace mirrors the obs span API surface the analyzer keys on.
type Trace struct{ spans []string }

func (t *Trace) AddSpan(name string, d time.Duration) { t.spans = append(t.spans, name) }
func (t *Trace) StartSpan(name string) func()         { return func() {} }

// Registry mirrors the metrics registry surface.
type Registry struct{}

func (r *Registry) Histogram(name string) *int { return nil }
func (r *Registry) Counter(name string) *int   { return nil }

func spans(tr *Trace) {
	tr.AddSpan("scann", time.Millisecond) // want: typo, not in the taxonomy
	tr.AddSpan("cache", time.Millisecond) // fine
	done := tr.StartSpan("rerank")        // want: not a known stage
	done()
	tr.StartSpan("scatter") // fine: router fan-out stage
}

func metrics(reg *Registry) {
	reg.Histogram("serve.stage.cachee") // want: stage. metric outside the taxonomy
	reg.Histogram("serve.stage.embed")  // fine
	reg.Histogram("pipe.stage.chunk")   // fine: pipeline taxonomy
	reg.Counter("serve.requests")       // fine: not a stage metric
	prefix := "serve."
	reg.Histogram(prefix + "stage.scan") // fine for the literal part; prefix is opaque
}

// Stage mirrors rag.Stage, the carrier in which a store reports its
// stages to the serving layer.
type Stage struct {
	Name string
	Dur  time.Duration
}

func stages(reg *Registry, d time.Duration) []Stage {
	out := []Stage{
		{Name: "scatter", Dur: d}, // fine
		{Name: "gather", Dur: d},  // want: not a known stage
		{"scann", d},              // want: positional, a typo
	}
	for _, st := range out {
		reg.Histogram("serve.stage." + st.Name) // fine: the name is a Stage, checked where it is built
	}
	return append(out, Stage{Dur: d, Name: "merge"}) // fine
}

func suppressed(tr *Trace) {
	//lint:ignore stagenames experimental stage behind a flag, not yet in the schema
	tr.AddSpan("prefetch", time.Millisecond)
}
