// Package detrand enforces the repository's determinism discipline
// (DESIGN.md §12): results must be bit-identical at every worker count
// and fully replayable from seeds, so the solver and approximator
// packages may not consult ambient nondeterminism.
//
// Three rules:
//
//  1. In determinism-critical packages (sherman, capprox, lsst, jtree,
//     vtree, par, graph, csr, shard) calls to math/rand's global functions
//     (rand.Intn, rand.Float64, ...) are forbidden — randomness must
//     flow through an explicitly seeded *rand.Rand so replays
//     reproduce it. Constructing one (rand.New, rand.NewSource) is
//     allowed.
//  2. In the same packages, time.Now / time.Since / time.Until are
//     forbidden: wall-clock reads in result-affecting code are the
//     classic source of unreproducible benches. Pure timing
//     instrumentation carries a //distflow:allow detrand annotation
//     explaining that the value only feeds Stats.
//  3. In every package, a `range` over a map whose body appends to an
//     outer slice, sends on a channel, concatenates onto an outer
//     string, or writes output (fmt printing / Write methods /
//     encoders) is flagged: map iteration order is random per run, so
//     such loops emit randomly-ordered results. The one idiomatic
//     exception — collecting keys that are sorted immediately after
//     the loop — is recognized and allowed.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"distflow/internal/analyzers/framework"
)

// criticalPkgs are the determinism-critical package names: rules 1–2
// apply only inside them (matched as import-path suffixes, so the
// analysistest packages named after them are covered too).
var criticalPkgs = []string{
	"sherman", "capprox", "lsst", "jtree", "vtree", "par", "graph", "csr", "shard", "numutil",
}

// globalRandAllowed lists the math/rand package-level functions that
// do not touch the global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Analyzer is the detrand pass.
var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc:  "forbid ambient nondeterminism (global rand, wall clock, ordered output from map ranges) in determinism-critical code",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	critical := framework.PathHasSuffix(pass.Path, criticalPkgs...)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if critical {
					checkCall(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch framework.FuncPkgPath(fn) {
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand.%s uses the shared unseeded source; thread an explicitly seeded *rand.Rand instead", fn.Name())
		}
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s in a determinism-critical package: wall-clock reads are not replayable", fn.Name())
		}
	}
}

// checkMapRange flags range-over-map loops that produce ordered output
// from the randomly-ordered iteration.
func checkMapRange(pass *framework.Pass, file *ast.File, loop *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[loop.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var appended []*types.Var // outer slices appended to inside the body
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "map iteration order is random: %s inside a range over a map emits nondeterministic order", what)
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.AssignStmt:
			checkAssign(pass, loop, n, &appended, report)
		case *ast.CallExpr:
			if isOrderedOutputCall(pass.TypesInfo, n) {
				report(n.Pos(), "output write")
			}
		}
		return true
	})
	// The collect-then-sort idiom: appends whose slice is sorted after
	// the loop are the standard fix, not a bug.
	for _, slice := range appended {
		if !sortedAfter(pass, file, loop, slice) {
			report(loop.Pos(), "append to "+slice.Name())
		}
	}
}

// checkAssign records appends to outer slices and flags `s += ...`
// string concatenation onto outer variables.
func checkAssign(pass *framework.Pass, loop *ast.RangeStmt, assign *ast.AssignStmt, appended *[]*types.Var, report func(token.Pos, string)) {
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && pass.TypesInfo.Uses[id] == types.Universe.Lookup("append") {
				if i < len(assign.Lhs) {
					if v := outerVar(pass, loop, assign.Lhs[i]); v != nil {
						*appended = append(*appended, v)
					}
				}
			}
		}
	}
	if assign.Tok == token.ADD_ASSIGN && len(assign.Lhs) == 1 {
		if v := outerVar(pass, loop, assign.Lhs[0]); v != nil {
			if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				report(assign.Pos(), "string concatenation onto "+v.Name())
			}
		}
	}
}

// outerVar resolves expr to a variable declared outside the loop: a
// plain identifier, or a field selector (x.f, x.y.f) whose root
// variable is declared outside the loop — in which case the field
// variable is returned, so appends to result-struct fields (doc.Rows =
// append(doc.Rows, ...)) are tracked too.
func outerVar(pass *framework.Pass, loop *ast.RangeStmt, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		v, ok := framework.ObjectOf(pass.TypesInfo, e).(*types.Var)
		if !ok {
			return nil
		}
		if v.Pos() >= loop.Pos() && v.Pos() <= loop.End() {
			return nil // loop-local accumulator: scoped to one iteration
		}
		return v
	case *ast.SelectorExpr:
		sel, ok := pass.TypesInfo.Selections[e]
		if !ok {
			return nil
		}
		f, ok := sel.Obj().(*types.Var)
		if !ok {
			return nil
		}
		root := rootIdent(e)
		if root == nil {
			return nil
		}
		rv, ok := framework.ObjectOf(pass.TypesInfo, root).(*types.Var)
		if !ok || (rv.Pos() >= loop.Pos() && rv.Pos() <= loop.End()) {
			return nil
		}
		return f
	}
	return nil
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

// isOrderedOutputCall reports whether the call writes ordered output:
// fmt printing, Write*/Encode methods on writers and encoders.
func isOrderedOutputCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	if framework.FuncPkgPath(fn) == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Print", "Printf", "Println":
			return true
		}
	}
	return false
}

// sortedAfter reports whether slice is passed to a sort call (sort.*
// or slices.Sort*) in a statement that follows the loop within the
// same enclosing function — a sort in some later function must not
// absolve this loop, which matters for struct fields whose *types.Var
// is shared by every function touching the type.
func sortedAfter(pass *framework.Pass, file *ast.File, loop *ast.RangeStmt, slice *types.Var) bool {
	scope := enclosingFunc(file, loop.Pos())
	if scope == nil {
		scope = file
	}
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= loop.End() {
			return true
		}
		fn := framework.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch framework.FuncPkgPath(fn) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			arg = ast.Unparen(arg)
			if un, ok := arg.(*ast.UnaryExpr); ok {
				arg = ast.Unparen(un.X) // sort.Sort(&x) forms
			}
			switch a := arg.(type) {
			case *ast.Ident:
				if framework.ObjectOf(pass.TypesInfo, a) == slice {
					found = true
				}
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[a]; ok && sel.Obj() == slice {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing
// pos, or nil for top-level positions.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n
			}
		}
		return true
	})
	return best
}
