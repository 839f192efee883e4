package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// allocbound: the VSF header-bomb class — a 40-byte file whose decoded
// count field claims 2^31 rows must fail validation, not drive a
// multi-gigabyte make(). FuzzLoad hunts this dynamically; the analyzer
// pins it structurally in vecstore persist/load code: any make() whose
// size expression mentions a header-decoded integer (read via
// binary.Read / binary.<Endian>.Uint*) must be preceded, in source
// order, by a guard — an if statement that mentions the decoded value
// (or a value derived from it, e.g. a running total) and exits via
// return or panic. The analysis is per-function: values passed onward as
// parameters are the caller's responsibility, which matches the repo's
// byte-budget discipline (loadVSF hands each reader the file's payload
// size) where each reader validates what it decodes.
var analyzerAllocBound = &Analyzer{
	Name: "allocbound",
	Doc:  "make() sizes derived from decoded header integers must be validated first",
	Run: func(p *Package, report func(pos token.Pos, msg string)) {
		if p.Name != "vecstore" {
			return
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkAllocBound(p, fd, report)
			}
		}
	},
}

// allocEvent is one source-ordered fact the scan replays: a variable
// becoming header-tainted, an assignment propagating taint, a guard
// clearing it, or a make() consuming it.
type allocEvent struct {
	pos  token.Pos
	kind int // taintEv, assignEv, guardEv, makeEv
	// taintEv: names[0] is the decoded variable.
	// assignEv: names are LHS idents, deps the RHS idents.
	// guardEv: names are the idents the exiting if-condition mentions.
	// makeEv: names are the idents in the size/cap expressions.
	names []string
	deps  []string
	node  ast.Node
}

const (
	taintEv = iota
	assignEv
	guardEv
	makeEv
)

func checkAllocBound(p *Package, fd *ast.FuncDecl, report func(pos token.Pos, msg string)) {
	events := collectAllocEvents(p, fd)
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// roots maps a variable to the set of decoded header variables it
	// (transitively) carries; guarded marks roots that a validating
	// branch has covered.
	roots := make(map[string]map[string]bool)
	guarded := make(map[string]bool)
	addRoot := func(v, root string) {
		if roots[v] == nil {
			roots[v] = make(map[string]bool)
		}
		roots[v][root] = true
	}
	for _, ev := range events {
		switch ev.kind {
		case taintEv:
			addRoot(ev.names[0], ev.names[0])
		case assignEv:
			for _, dep := range ev.deps {
				for root := range roots[dep] {
					for _, lhs := range ev.names {
						addRoot(lhs, root)
					}
				}
			}
		case guardEv:
			for _, n := range ev.names {
				for root := range roots[n] {
					guarded[root] = true
				}
			}
		case makeEv:
			for _, n := range ev.names {
				for root := range roots[n] {
					if !guarded[root] {
						report(ev.pos, "allocation sized by header-decoded "+quoted(root)+
							" without a preceding bounds check (VSF header-bomb class)")
					}
				}
			}
		}
	}
}

// collectAllocEvents walks the function body once, recording decode,
// assignment, guard and make events with their positions.
func collectAllocEvents(p *Package, fd *ast.FuncDecl) []allocEvent {
	var events []allocEvent
	usesBinaryRead := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(p, call, "encoding/binary", "Read") {
			usesBinaryRead = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			// &x in a function that calls binary.Read: x is decoded from
			// the stream (covers both direct binary.Read(r, le, &x) and
			// the []*uint32{&a, &b} loop idiom).
			if usesBinaryRead && v.Op == token.AND {
				if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
					events = append(events, allocEvent{pos: v.Pos(), kind: taintEv, names: []string{id.Name}})
				}
			}
		case *ast.AssignStmt:
			events = append(events, assignEvent(p, v))
		case *ast.IfStmt:
			// The guard event anchors at the body, not the `if` keyword,
			// so an init statement (`if need := ...; need > remain`) is
			// replayed before the guard it feeds.
			if exitsOnError(v.Body) {
				events = append(events, allocEvent{pos: v.Body.Pos(), kind: guardEv, names: identNames(v.Cond)})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "make" && len(v.Args) >= 2 {
				var names []string
				for _, arg := range v.Args[1:] {
					names = append(names, identNames(arg)...)
				}
				events = append(events, allocEvent{pos: v.Pos(), kind: makeEv, names: names})
			} else if decodesInt(p, v) {
				// binary.LittleEndian.Uint32(buf) and friends taint the
				// variable the enclosing assignment binds; handled via
				// assignEvent deps by tainting a synthetic name keyed on
				// the call — simplest is to mark the direct assignment.
				if names := assignTargets(fd, v); len(names) > 0 {
					for _, name := range names {
						events = append(events, allocEvent{pos: v.Pos(), kind: taintEv, names: []string{name}})
					}
				}
			}
		}
		return true
	})
	return events
}

// assignEvent turns an assignment into a propagation event: every LHS
// ident inherits the taint roots of every RHS ident. Compound assignment
// (+=) keeps the LHS as its own dependency implicitly because its roots
// are unioned, never replaced.
func assignEvent(p *Package, as *ast.AssignStmt) allocEvent {
	ev := allocEvent{pos: as.Pos(), kind: assignEv}
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			ev.names = append(ev.names, id.Name)
		}
	}
	for _, rhs := range as.Rhs {
		ev.deps = append(ev.deps, identNames(rhs)...)
	}
	return ev
}

// assignTargets finds the idents an expression is directly assigned to
// anywhere in the function (`id := binary.LittleEndian.Uint32(b)`).
func assignTargets(fd *ast.FuncDecl, target ast.Expr) []string {
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if containsNode(rhs, target) && i < len(as.Lhs) {
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					out = append(out, id.Name)
				}
			}
		}
		return true
	})
	return out
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// decodesInt matches binary.<Endian>.Uint16/32/64 — the manual header
// decode path.
func decodesInt(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Uint")
}

// exitsOnError reports whether a block unconditionally leaves the
// function (return or panic as its last statement) — the shape of a
// validation branch.
func exitsOnError(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func identNames(e ast.Expr) []string {
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}
