package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// nosleep: a bare time.Sleep cannot be interrupted, so a closing server
// or a departed client rides out the full wait — as in the argo
// gateway's Close-vs-backoff hang, fixed by routing every delay through
// the ctx-abortable retry.Sleep (that retry path has since been deleted).
// Non-test code must not call time.Sleep.
var analyzerNoSleep = &Analyzer{
	Name: "nosleep",
	Doc:  "bare time.Sleep in non-test code must go through the ctx-abortable retry.Sleep",
	Run: func(p *Package, report func(pos token.Pos, msg string)) {
		// retry.Sleep itself is the sanctioned implementation site.
		if p.Name == "retry" {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgFunc(p, call, "time", "Sleep") {
					report(call.Pos(), "bare time.Sleep cannot be cancelled; use retry.Sleep(ctx, d)")
				}
				return true
			})
		}
	},
}

// ctxhttp: the router→shard deadline chain only works because every
// outbound request carries the caller's context. Requests built without
// one (http.NewRequest, or the convenience Get/Post/Head helpers on the
// package or on http.Client) silently drop the deadline.
var analyzerCtxHTTP = &Analyzer{
	Name: "ctxhttp",
	Doc:  "outbound HTTP requests must be built with http.NewRequestWithContext",
	Run: func(p *Package, report func(pos token.Pos, msg string)) {
		helpers := map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
					return true
				}
				recv := fn.Type().(*types.Signature).Recv()
				switch {
				case recv == nil && fn.Name() == "NewRequest":
					report(call.Pos(), "http.NewRequest drops the caller's context; use http.NewRequestWithContext")
				case recv == nil && helpers[fn.Name()]:
					report(call.Pos(), "http."+fn.Name()+" cannot carry a context; build the request with http.NewRequestWithContext")
				case recv != nil && helpers[fn.Name()] && recvTypeName(p, call) == "Client":
					report(call.Pos(), "http.Client."+fn.Name()+" cannot carry a context; build the request with http.NewRequestWithContext and use Do")
				}
				return true
			})
		}
	},
}

// errwrap: fmt.Errorf must wrap error operands with %w, or callers
// cannot errors.Is/As through load/search/scatter failures. Go ≥1.20
// allows multiple %w verbs, so "%w: %v" chains have no excuse left.
var analyzerErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf with an error operand must use %w",
	Run: func(p *Package, report func(pos token.Pos, msg string)) {
		errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isPkgFunc(p, call, "fmt", "Errorf") || len(call.Args) < 2 {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true // dynamic format string: nothing to check
				}
				format, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				verbs, ok := formatVerbs(format)
				if !ok {
					return true // explicit argument indexes etc.: skip
				}
				for i, arg := range call.Args[1:] {
					if i >= len(verbs) {
						break
					}
					t := p.Info.Types[arg].Type
					if t == nil || !types.Implements(t, errIface) {
						continue
					}
					if verbs[i] != 'w' {
						report(arg.Pos(), fmt.Sprintf(
							"error operand formatted with %%%c; use %%w so errors.Is/As see the cause", verbs[i]))
					}
				}
				return true
			})
		}
	},
}

// formatVerbs returns the verb consuming each successive operand of a
// Printf-style format string. It handles flags, width and precision
// (including '*', which consumes an operand of its own) and reports
// !ok on explicit argument indexes ('%[1]d'), which break the simple
// positional mapping.
func formatVerbs(format string) (verbs []rune, ok bool) {
	i := 0
	for i < len(format) {
		if format[i] != '%' {
			i++
			continue
		}
		i++
		// flags
		for i < len(format) && strings.ContainsRune("+-# 0", rune(format[i])) {
			i++
		}
		// width
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i >= len(format) {
			break
		}
		switch c := rune(format[i]); c {
		case '%':
			// literal percent: consumes nothing
		case '[':
			return nil, false
		default:
			verbs = append(verbs, c)
		}
		i++
	}
	return verbs, true
}
