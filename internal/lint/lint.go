// Package lint hosts the repo's custom analyzers — the mechanical form
// of invariants that were previously enforced only by review:
//
//   - bitident: no nondeterministic float accumulation in the kernel
//     packages (the bit-identity fence).
//   - hotpathalloc: functions annotated //ehlint:hotpath stay free of
//     allocating constructs.
//   - ctxthread: blocking APIs thread context.Context; no
//     context.Background()/TODO() in library code.
//   - errtaxonomy: serve handlers route error statuses through the
//     errorCodes table and wrap taxonomy sentinels with %w.
//   - obsmetric: metric family names are literal, snake_case, and
//     unit-suffixed, with consistent label arity.
//
// The suite runs as `go vet -vettool` via cmd/ehlint (see make lint).
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// All returns the repo's analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		BitIdent,
		HotPathAlloc,
		CtxThread,
		ErrTaxonomy,
		ObsMetric,
	}
}

// pkgBase returns the last element of an import path — analyzers scope
// themselves by it so fixture packages behave like the real ones.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isTestFile reports whether pos lies in a _test.go file. go vet
// analyzes the test variant of each package, so analyzers that police
// production code skip test sources explicitly.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// calleeIn resolves a call of the form pkg.Name and reports whether it
// names Name in a package whose path ends with pkgSuffix (e.g. "math",
// "internal/obs").
func calleeIn(info *types.Info, call *ast.CallExpr, pkgSuffix, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix)
}

// constString returns the compile-time string value of e, if any.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constInt returns the compile-time integer value of e, if any.
func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return v, ok
}

// isFloat reports whether t's underlying type is float32 or float64.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent returns the leftmost identifier of an lvalue expression
// (x, x.f, x[i], x.f[i].g → x), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether the object an identifier uses was
// declared outside the [lo, hi] node span — i.e. the expression writes
// state owned by an enclosing scope.
func declaredOutside(info *types.Info, id *ast.Ident, lo, hi token.Pos) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < lo || obj.Pos() > hi
}

// allowedLines collects, per file, the source lines blessed by an
// `//ehlint:allow <check>` comment: the comment's own line (trailing
// form) and the next line (own-line form).
func allowedLines(fset *token.FileSet, file *ast.File, check string) map[int]bool {
	directive := "//ehlint:allow " + check
	var lines map[int]bool
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directive) {
				continue
			}
			if lines == nil {
				lines = map[int]bool{}
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// docHasDirective reports whether a doc comment contains a line whose
// content (after "//") starts with directive — e.g. "ehlint:hotpath".
func docHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// inspectStack walks n, calling f with each node and the stack of its
// ancestors (outermost first, not including n). Returning false prunes
// the subtree.
func inspectStack(n ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := f(node, stack)
		if ok {
			stack = append(stack, node)
		}
		return ok
	})
}
