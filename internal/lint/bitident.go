package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// bitidentPkgs are the kernel packages under the bit-identity fence:
// their float results must be reproducible bit for bit, so any
// iteration-order- or instruction-dependent accumulation is a bug.
var bitidentPkgs = map[string]bool{
	"tensor": true,
	"plan":   true,
	"nn":     true,
}

// BitIdent flags patterns that break deterministic float accumulation
// order in the kernel packages.
var BitIdent = &analysis.Analyzer{
	Name: "bitident",
	Doc: "flag nondeterministic float accumulation in the kernel packages: " +
		"range-over-map loops feeding float state, math.FMA (fused rounding " +
		"differs from mul+add), and goroutine closures writing captured " +
		"scalar float accumulators (sharded slice writes à la " +
		"tensor.ParallelFor are the blessed pattern). The analyzer reads Go " +
		"source only; internal/tensor's TestAssemblyHasNoFMA covers the " +
		"package's amd64 assembly, failing on any fused multiply-add there",
	Run: runBitIdent,
}

func runBitIdent(pass *analysis.Pass) error {
	if !bitidentPkgs[pkgBase(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.RangeStmt:
				checkMapRangeAccum(pass, v)
			case *ast.CallExpr:
				if calleeIn(pass.TypesInfo, v, "math", "FMA") {
					pass.Reportf(v.Pos(), "math.FMA fuses the rounding step and is not bit-identical to mul+add; use explicit operations")
				}
			case *ast.GoStmt:
				if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineFloatWrites(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRangeAccum flags float state accumulated across a
// range-over-map loop: map iteration order is randomized, so any
// non-commutative-in-floats reduction over it is nondeterministic.
func checkMapRangeAccum(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if !isFloat(typeOf(pass.TypesInfo, lhs)) {
			return true
		}
		root := rootIdent(lhs)
		if root == nil || !declaredOutside(pass.TypesInfo, root, rng.Pos(), rng.End()) {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			pass.Reportf(as.Pos(), "float accumulation over map iteration order is nondeterministic; iterate sorted keys instead")
		case token.ASSIGN:
			if exprMentions(as.Rhs[0], root.Name) {
				pass.Reportf(as.Pos(), "float accumulation over map iteration order is nondeterministic; iterate sorted keys instead")
			}
		}
		return true
	})
}

// checkGoroutineFloatWrites flags goroutine closures that write a
// captured scalar float variable: concurrent scheduling makes the
// combine order nondeterministic. Writes to slice elements are not
// flagged — disjoint row bands per goroutine (tensor.ParallelFor) keep
// every accumulator single-owner and remain bit-identical.
func checkGoroutineFloatWrites(pass *analysis.Pass, lit *ast.FuncLit) {
	report := func(pos token.Pos, name string) {
		pass.Reportf(pos, "goroutine writes captured float %s: combine order is scheduling-dependent; give each goroutine a disjoint slice band and merge in fixed order", name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isFloat(typeOf(pass.TypesInfo, id)) {
					continue
				}
				if declaredOutside(pass.TypesInfo, id, lit.Pos(), lit.End()) {
					report(v.Pos(), id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := v.X.(*ast.Ident); ok && isFloat(typeOf(pass.TypesInfo, id)) &&
				declaredOutside(pass.TypesInfo, id, lit.Pos(), lit.End()) {
				report(v.Pos(), id.Name)
			}
		}
		return true
	})
}

// typeOf is TypesInfo.TypeOf with a nil-safe default.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if t := info.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// exprMentions reports whether name appears as an identifier anywhere
// in e.
func exprMentions(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
