// Package parsum enforces the bit-identity rule for parallel floating
// point (DESIGN.md §4/§12): float accumulation across par pool chunks
// must go through the pool's ordered reductions (par.Sum, par.Max),
// whose merge order depends only on problem size — never through a
// shared accumulator mutated from inside a callback, whose ordering
// (and hence rounding) would depend on worker interleaving. This is
// both a data race and, with per-chunk locking "fixes", the classic
// source of run-to-run last-bit drift.
//
// The analyzer flags, inside any function literal passed to par.For /
// par.Do / par.DoSized / par.Sum / par.Max, compound float assignments
// (+=, -=, *=, /=, or x = x ⊕ ...) whose target is declared outside the
// literal — a plain variable or a struct field. Writes through an index
// expression (out[i] += v) are exempt: chunks own disjoint index
// ranges, so indexed accumulation is deterministic.
package parsum

import (
	"go/ast"
	"go/token"
	"go/types"

	"distflow/internal/analyzers/framework"
)

// parPath matches the worker-pool package.
const parPath = "distflow/internal/par"

// poolEntry lists the par entry points whose callbacks run on worker
// goroutines.
var poolEntry = map[string]bool{"For": true, "Do": true, "DoSized": true, "Sum": true, "Max": true}

// Analyzer is the parsum pass.
var Analyzer = &framework.Analyzer{
	Name: "parsum",
	Doc:  "forbid shared float accumulation inside par pool callbacks; use the ordered reductions par.Sum/par.Max",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || !poolEntry[fn.Name()] {
				return true
			}
			if p := framework.FuncPkgPath(fn); p != parPath && !framework.PathHasSuffix(p, "par") {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkCallback(pass, fn.Name(), lit)
				}
			}
			return true
		})
	}
	return nil, nil
}

func checkCallback(pass *framework.Pass, entry string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch assign.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(assign.Lhs) == 1 {
				checkTarget(pass, entry, lit, assign.Lhs[0], assign.Pos())
			}
		case token.ASSIGN:
			// x = x + expr (and friends) is the same accumulation.
			for i, lhs := range assign.Lhs {
				if i >= len(assign.Rhs) {
					break
				}
				if selfReferential(pass, lhs, assign.Rhs[i]) {
					checkTarget(pass, entry, lit, lhs, assign.Pos())
				}
			}
		}
		return true
	})
}

// selfReferential reports whether rhs is a binary expression that
// mentions the lhs target (a variable or a selected field).
func selfReferential(pass *framework.Pass, lhs, rhs ast.Expr) bool {
	if _, ok := ast.Unparen(rhs).(*ast.BinaryExpr); !ok {
		return false
	}
	var obj types.Object
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj = framework.ObjectOf(pass.TypesInfo, l)
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[l]; ok {
			obj = sel.Obj()
		}
	}
	if obj == nil {
		return false
	}
	return framework.UsesObject(pass.TypesInfo, rhs, obj)
}

// checkTarget flags lhs if it is a float location declared outside
// the callback: a captured variable or a field reached through one.
func checkTarget(pass *framework.Pass, entry string, lit *ast.FuncLit, lhs ast.Expr, pos token.Pos) {
	tv, ok := pass.TypesInfo.Types[lhs]
	if !ok || !framework.IsFloat(tv.Type) {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := framework.ObjectOf(pass.TypesInfo, l).(*types.Var)
		if !ok {
			return
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return // callback-local accumulator: each chunk owns its own
		}
		pass.Reportf(pos,
			"float accumulation onto captured %q inside a par.%s callback is worker-order dependent: return a chunk partial and reduce with par.Sum/par.Max", v.Name(), entry)
	case *ast.SelectorExpr:
		// field of a captured struct — same hazard.
		if root := rootIdent(l); root != nil {
			if v, ok := framework.ObjectOf(pass.TypesInfo, root).(*types.Var); ok {
				if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
					return
				}
				pass.Reportf(pos,
					"float accumulation onto captured field %q inside a par.%s callback is worker-order dependent: return a chunk partial and reduce with par.Sum/par.Max", l.Sel.Name, entry)
			}
		}
	case *ast.IndexExpr:
		// out[i] += v: chunks own disjoint ranges — deterministic.
	}
}

// rootIdent walks a selector chain to its base identifier.
func rootIdent(sel *ast.SelectorExpr) *ast.Ident {
	for {
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			sel = x
		default:
			return nil
		}
	}
}
