package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nilrecv: obs.Trace promises that every method is safe on a nil
// receiver — untraced paths pay exactly one nil check. The contract is
// structural: every exported pointer-receiver method on Trace must open
// with `if t == nil { ... }`.
var analyzerNilRecv = &Analyzer{
	Name: "nilrecv",
	Doc:  "exported pointer-receiver methods on obs.Trace must open with a nil guard",
	Run: func(p *Package, report func(pos token.Pos, msg string)) {
		if p.Name != "obs" {
			return
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
					continue
				}
				star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
				if !ok {
					continue
				}
				base, ok := star.X.(*ast.Ident)
				if !ok || base.Name != "Trace" {
					continue
				}
				if len(fd.Recv.List[0].Names) == 0 || !opensWithNilGuard(fd) {
					report(fd.Pos(), "exported method "+fd.Name.Name+
						" on *Trace must open with a nil-receiver guard (nil *Trace contract)")
				}
			}
		}
	},
}

// opensWithNilGuard reports whether the method's first statement is
// `if <recv> == nil { ... }` — possibly widened with further `||`
// disjuncts (`if t == nil || len(spans) == 0`), which still run the
// early-exit body on a nil receiver.
func opensWithNilGuard(fd *ast.FuncDecl) bool {
	recv := fd.Recv.List[0].Names[0].Name
	if len(fd.Body.List) == 0 {
		return false
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	return hasNilDisjunct(ifs.Cond, recv)
}

// hasNilDisjunct reports whether `<recv> == nil` appears as a disjunct
// of an ||-chain (an && conjunction would not fire on every nil
// receiver, so it does not count).
func hasNilDisjunct(e ast.Expr, recv string) bool {
	cmp, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LOR:
		return hasNilDisjunct(cmp.X, recv) || hasNilDisjunct(cmp.Y, recv)
	case token.EQL:
		return (isIdent(cmp.X, recv) && isIdent(cmp.Y, "nil")) ||
			(isIdent(cmp.Y, recv) && isIdent(cmp.X, "nil"))
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// stageTaxonomy is the closed set of span names the serving stack may
// record, and this map is its one definition: the five stages a
// cache-missing search crosses on a backend (queue, cache, embed, scan,
// merge), encode (booked after the response snapshot on both tiers) and
// scatter (the router's fan-out). Dashboards, the slowlog and ragbench's
// per-stage metrics key on these names, so a new stage is added here in
// the same change that records it.
var stageTaxonomy = map[string]bool{
	"queue":   true,
	"cache":   true,
	"embed":   true,
	"scan":    true,
	"merge":   true,
	"encode":  true,
	"scatter": true,
}

// pipelineStageTaxonomy is the generation pipeline's own stage set
// (internal/core's per-stage histograms, which predate the serving
// tier). Metric names may use either tier's stages; trace spans are a
// serving-tier concept and use stageTaxonomy alone.
var pipelineStageTaxonomy = map[string]bool{
	"parse": true,
	"chunk": true,
}

// stagenames: a span recorded under a name outside the taxonomy, or a
// stage histogram registered under one, drifts silently away from every
// reader of the stage names (slowlog consumers, ragbench's per-stage
// metrics). Catch the literal at analysis time. Matching is by type name
// (Trace.AddSpan/StartSpan, Registry histogram/counter names containing
// "stage.", and the Name of a Stage literal — rag.Stage, in which a store
// hands its stages to the serving layer as data), so the obs, metrics and
// rag packages don't need importing here. A metric name whose literal
// ends at "stage." takes its stage from such a Stage, checked where the
// Stage is built.
var analyzerStageTaxonomy = &Analyzer{
	Name: "stagenames",
	Doc:  "stage/metric name literals must belong to the approved stage taxonomy",
	Run: func(p *Package, report func(pos token.Pos, msg string)) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if name := stageLitName(p, lit); name != nil {
						for _, s := range stringLits(name) {
							if !stageTaxonomy[s] {
								report(name.Pos(), "stage name "+quoted(s)+
									" is outside the approved stage taxonomy (see stageTaxonomy in internal/lint/contracts.go)")
							}
						}
					}
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case (sel.Sel.Name == "AddSpan" || sel.Sel.Name == "StartSpan") &&
					recvTypeName(p, call) == "Trace":
					if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok {
						for _, s := range stringLits(lit) {
							if !stageTaxonomy[s] {
								report(call.Args[0].Pos(), "span name "+quoted(s)+
									" is outside the approved stage taxonomy (see stageTaxonomy in internal/lint/contracts.go)")
							}
						}
					}
				case recvTypeName(p, call) == "Registry":
					for _, s := range stringLits(call.Args[0]) {
						idx := strings.Index(s, "stage.")
						if idx < 0 {
							continue
						}
						stage := s[idx+len("stage."):]
						if stage != "" && !stageTaxonomy[stage] && !pipelineStageTaxonomy[stage] {
							report(call.Args[0].Pos(), "stage metric suffix "+quoted(stage)+
								" is outside the approved stage taxonomy (see stageTaxonomy in internal/lint/contracts.go)")
						}
					}
				}
				return true
			})
		}
	},
}

// stageLitName returns the Name element of a composite literal of a type
// named Stage, keyed or positional (the type may be elided, as inside a
// []Stage literal), or nil for any other literal.
func stageLitName(p *Package, lit *ast.CompositeLit) ast.Expr {
	named, ok := p.Info.TypeOf(lit).(*types.Named)
	if !ok || named.Obj().Name() != "Stage" {
		return nil
	}
	for i, elt := range lit.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		switch {
		case keyed && isIdent(kv.Key, "Name"):
			return kv.Value
		case !keyed && i == 0:
			return elt
		}
	}
	return nil
}

func quoted(s string) string { return "\"" + s + "\"" }
