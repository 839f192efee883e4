package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module: the parsed files the
// analyzers walk plus the go/types objects they resolve names against.
// TypeErrors collects (rather than aborts on) type-check problems so a
// package that fails to fully check still gets the syntactic analyzers;
// Run reports each one as a finding.
type Package struct {
	Name string // package name (e.g. "vecstore", "main")
	Path string // import path (e.g. "repro/internal/vecstore")
	Dir  string // absolute directory

	Fset  *token.FileSet
	Files []*ast.File

	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Module is a loaded Go module: the package loader and type-check cache
// behind one raglint run. It resolves module-internal import paths from
// source itself and delegates everything else (the standard library) to
// the shared go/importer source importer, so the whole pipeline stays
// inside the standard library.
type Module struct {
	Root string // absolute module root (directory of go.mod)
	Path string // module path from go.mod

	pkgs map[string]*Package // by import path; nil value marks in-progress
}

// fset and std are shared by every Module of the process: the standard
// library is type-checked from source once, not once per LoadModule or
// LoadFixture call. token.FileSet is safe for concurrent use; the source
// importer is not, so stdMu serialises it across parallel loads.
var (
	fset  = token.NewFileSet()
	stdMu sync.Mutex
	std   = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
)

// LoadModule loads every non-test package under the module rooted at (or
// above) dir. Directories named testdata or vendor, and hidden or
// underscore-prefixed directories, are skipped, matching the go tool's
// package enumeration.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, pkgs: make(map[string]*Package)}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if _, err := m.loadDir(d, m.importPathFor(d)); err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", d, err)
		}
	}
	return m, nil
}

// Packages returns the module's loaded packages sorted by import path.
func (m *Module) Packages() []*Package {
	out := make([]*Package, 0, len(m.pkgs))
	for _, p := range m.pkgs {
		if p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

func (m *Module) importPathFor(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isPkgGoFile(dir, e) {
			return true
		}
	}
	return false
}

// isPkgGoFile reports whether e is a non-test Go file the compiler would
// build in dir for the default target: its //go:build line and any
// _GOOS/_GOARCH suffix must match, so a file and its build-tagged twin
// are never type-checked together.
func isPkgGoFile(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// loadDir parses and type-checks the single package in dir under the
// given import path, memoised by path. Type-check errors are collected on
// the package, not returned: analyzers run on whatever resolved, and Run
// reports the errors.
func (m *Module) loadDir(dir, path string) (*Package, error) {
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	m.pkgs[path] = nil // in-progress marker
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, e := range ents {
		if !isPkgGoFile(dir, e) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	pkg.Name = pkg.Files[0].Name.Name
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: m,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, fset, pkg.Files, pkg.Info)
	m.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer for the type-checker: module-internal
// paths are loaded from source by this loader, everything else falls
// through to the standard-library source importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
		p, err := m.loadDir(filepath.Join(m.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return std.ImportFrom(path, m.Root, 0)
}

// LoadFixture parses and type-checks one standalone package directory
// (an analyzer test fixture). Fixture packages may import the standard
// library only.
func LoadFixture(dir string) (*Package, error) {
	m := &Module{Root: dir, Path: "fixture", pkgs: make(map[string]*Package)}
	return m.loadDir(dir, "fixture/"+filepath.Base(dir))
}
