package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// ctxFirstPkgs are the packages whose exported blocking APIs must put
// context.Context first — the engine/runtime layers every long-running
// call threads cancellation through.
var ctxFirstPkgs = map[string]bool{
	"exper":  true,
	"core":   true,
	"search": true,
	"batch":  true,
	"fleet":  true,
}

// CtxThread enforces context threading: exported APIs in the blocking
// packages take ctx as their first parameter, and library code never
// mints its own root context — context.Background()/context.TODO() are
// reserved for main functions, tests, and blessed lifecycle roots.
var CtxThread = &analysis.Analyzer{
	Name: "ctxthread",
	Doc: "exported APIs in internal/{exper,core,search,batch,fleet} must accept " +
		"context.Context as their first parameter; context.Background() and " +
		"context.TODO() are flagged in library code unless the call carries an " +
		"//ehlint:allow ctxbg comment naming why it is a lifecycle root",
	Run: runCtxThread,
}

func runCtxThread(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // binaries own their root context
	}
	checkFirst := ctxFirstPkgs[pkgBase(pass.Pkg.Path())]
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		allowed := allowedLines(pass.Fset, file, "ctxbg")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if checkFirst && fn.Name.IsExported() && fn.Body != nil {
				checkCtxFirst(pass, fn)
			}
			if fn.Body == nil {
				continue
			}
			checkNoRootCtx(pass, fn, allowed)
		}
	}
	return nil
}

// checkCtxFirst flags an exported function whose context.Context
// parameter is not the first parameter.
func checkCtxFirst(pass *analysis.Pass, fn *ast.FuncDecl) {
	params := fn.Type.Params
	if params == nil {
		return
	}
	argIndex := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass, field.Type) && argIndex != 0 {
			pass.Reportf(field.Pos(), "%s: context.Context must be the first parameter", fn.Name.Name)
		}
		argIndex += n
	}
}

// checkNoRootCtx flags context.Background()/context.TODO() calls
// inside one function body.
func checkNoRootCtx(pass *analysis.Pass, fn *ast.FuncDecl, allowed map[int]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch {
		case calleeIn(pass.TypesInfo, call, "context", "Background"):
			name = "Background"
		case calleeIn(pass.TypesInfo, call, "context", "TODO"):
			name = "TODO"
		default:
			return true
		}
		if allowed[pass.Fset.Position(call.Pos()).Line] {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() in library code: thread the caller's context (or context.WithoutCancel for intentional detachment); bless true lifecycle roots with //ehlint:allow ctxbg",
			name)
		return true
	})
}

// isContextType reports whether a parameter type expression denotes
// context.Context.
func isContextType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	return t != nil && t.String() == "context.Context"
}
