// Package invariantcheck protects the skyline degeneracy fallback path.
//
// Every exported skyline entry point (Compute, ComputeIncremental,
// InsertDisk, ...) returns an error precisely because
// degenerate inputs — coincident hubs, zero radii, near-tangent disks —
// can defeat the divide-and-conquer merge; the whole-network engine
// re-validates every envelope (Skyline.CheckInvariants) and falls back to
// the full local cover when validation fails (docs/NUMERICS.md). A call
// site that discards one of these errors silently converts "degenerate
// but detected" into "wrong forwarding set".
//
// Flagged, outside _test.go files, for any function or method of
// repro/internal/skyline whose final result is an error:
//
//   - the error assigned to blank (`s, _ := skyline.Compute(disks)`);
//   - the call used as a bare statement (`sl.CheckInvariants(n)`).
//
// An intentional drop (e.g. inputs already validated upstream) must say
// so: //mldcslint:allow invariantcheck <why>.
package invariantcheck

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/allowdirective"
	"repro/internal/analysis/anglenorm"
)

const Name = "invariantcheck"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "flag discarded errors from repro/internal/skyline entry points\n" +
		"(Compute*, InsertDisk, CheckInvariants, Validate); the engine's degeneracy\n" +
		"fallback depends on them being checked",
	Run: run,
}

var errorType = types.Universe.Lookup("error").Type()

// skylineErrCall reports whether call invokes a function or method of the
// skyline package whose last result is an error, returning its name and
// result count.
func skylineErrCall(info *types.Info, call *ast.CallExpr) (name string, nres int, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", 0, false
	}
	fn, isFn := info.Uses[id].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != anglenorm.SkylinePath {
		return "", 0, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Results().Len() == 0 {
		return "", 0, false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, errorType) {
		return "", 0, false
	}
	return fn.Name(), sig.Results().Len(), true
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := pass.TypesInfo
	report := func(file *ast.File, rng analysis.Range, name string) {
		if allowdirective.Allowed(pass.Fset, file, rng.Pos(), Name) {
			return
		}
		pass.ReportRangef(rng, "error from skyline.%s discarded; it guards the degeneracy fallback (docs/NUMERICS.md) — handle it or annotate //mldcslint:allow invariantcheck <why>", name)
	}
	for _, file := range pass.Files {
		if allowdirective.InTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if name, _, ok := skylineErrCall(info, call); ok {
						report(file, st, name)
					}
				}
			case *ast.AssignStmt:
				// Tuple form: s, _ := skyline.Compute(...)
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					call, ok := st.Rhs[0].(*ast.CallExpr)
					if !ok {
						return true
					}
					name, nres, ok := skylineErrCall(info, call)
					if ok && nres == len(st.Lhs) && isBlank(st.Lhs[len(st.Lhs)-1]) {
						report(file, st, name)
					}
					return true
				}
				// One-to-one form: _ = sl.CheckInvariants(n)
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						if !isBlank(lhs) {
							continue
						}
						call, ok := st.Rhs[i].(*ast.CallExpr)
						if !ok {
							continue
						}
						if name, nres, ok := skylineErrCall(info, call); ok && nres == 1 {
							report(file, st, name)
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
