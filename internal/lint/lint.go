package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding: where, which analyzer, and what.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the driver's one-line format. File
// paths print as given (the driver relativises them to the module root).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one rule: a name (the suppression key), a one-line
// description of the invariant it encodes, and the pass over a typed
// package. Run reports findings through report; suppression and position
// bookkeeping happen in the runner.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, report func(pos token.Pos, msg string))
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerNoSleep,
		analyzerCtxHTTP,
		analyzerLockHeld,
		analyzerNilRecv,
		analyzerAllocBound,
		analyzerStageTaxonomy,
		analyzerErrWrap,
	}
}

// Select returns the analyzers whose names appear in the comma-separated
// list (empty list selects all).
func Select(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // names listed in the directive
	malformed bool
}

// suppressionIndex maps file → line → directive. A directive suppresses
// findings on its own line and on the line directly below it (the
// "comment above the offending statement" idiom).
type suppressionIndex map[string]map[int]*ignoreDirective

const ignorePrefix = "//lint:ignore"

func buildSuppressions(p *Package) suppressionIndex {
	idx := make(suppressionIndex)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				fields := strings.Fields(rest)
				d := &ignoreDirective{analyzers: make(map[string]bool)}
				// The directive needs an analyzer list and a non-empty
				// reason; anything less is itself a finding.
				if len(fields) < 2 {
					d.malformed = true
				} else {
					for _, name := range strings.Split(fields[0], ",") {
						d.analyzers[name] = true
					}
				}
				pos := p.Fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int]*ignoreDirective)
				}
				idx[pos.Filename][pos.Line] = d
			}
		}
	}
	return idx
}

// suppressed reports whether a finding by analyzer at pos is covered by a
// well-formed directive on the same line or the line above.
func (idx suppressionIndex) suppressed(analyzer string, pos token.Position) bool {
	lines := idx[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d := lines[line]; d != nil && !d.malformed && d.analyzers[analyzer] {
			return true
		}
	}
	return false
}

// Run executes the analyzers over every package and returns the surviving
// diagnostics sorted by position. Malformed //lint:ignore directives are
// reported under the pseudo-analyzer "lint", and type-check errors, which
// no directive suppresses, under "typecheck": an analyzer over a package
// that does not check sees only part of it.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, err := range p.TypeErrors {
			d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
			if te, ok := err.(types.Error); ok {
				d.Pos, d.Message = te.Fset.Position(te.Pos), strings.TrimSpace(te.Msg)
			}
			out = append(out, d)
		}
		idx := buildSuppressions(p)
		for file, lines := range idx {
			for line, d := range lines {
				if d.malformed {
					out = append(out, Diagnostic{
						Pos:      token.Position{Filename: file, Line: line},
						Analyzer: "lint",
						Message:  "malformed " + ignorePrefix + " directive (want " + ignorePrefix + " <analyzer> <reason>)",
					})
				}
			}
		}
		for _, a := range analyzers {
			a := a
			a.Run(p, func(pos token.Pos, msg string) {
				position := p.Fset.Position(pos)
				if idx.suppressed(a.Name, position) {
					return
				}
				out = append(out, Diagnostic{Pos: position, Analyzer: a.Name, Message: msg})
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Relativize rewrites diagnostic file paths relative to root (for stable
// driver output and golden files).
func Relativize(diags []Diagnostic, root string) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// --- shared resolution helpers ---------------------------------------

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := p.Info.Uses[id].(*types.Func)
	return f
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name. It resolves through go/types, so aliased imports and
// shadowed identifiers are handled.
func isPkgFunc(p *Package, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(p, call)
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Type().(*types.Signature).Recv() == nil
}

// recvTypeName returns the named type a method call's receiver resolves
// to ("" for non-methods), ignoring pointers.
func recvTypeName(p *Package, call *ast.CallExpr) string {
	f := calleeFunc(p, call)
	if f == nil {
		return ""
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// stringLits collects every string literal in the expression tree, in
// source order — how the analyzers see through `prefix + "stage.scan"`.
func stringLits(e ast.Expr) []string {
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}
