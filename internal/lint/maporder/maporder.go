// Package maporder flags `for range` iteration over maps and channels
// whose visitation order can leak into simulator results. Go randomizes
// map iteration order per run, and the order in which a channel's
// senders deliver depends on goroutine scheduling; any such loop that
// produces output, schedules work, or mutates order-sensitive state is
// a determinism bug of exactly the kind golden-file tests only catch
// when they get lucky. Float accumulation is the quiet case: float
// addition is not associative, so `sum += v` over either order drifts
// in its last bits from run to run.
//
// A range over a map or channel is accepted when the analyzer can prove
// the loop is order-insensitive:
//
//   - the body only writes through map index expressions (building
//     another map), accumulates with commutative integer ops (+=, |=,
//     &=, ^=, ++, --), or branches into such writes; or
//   - the body only appends keys/values to slices that are passed to a
//     sort call (sort.* or slices.Sort*) later in the same statement
//     list — the canonical collect-then-sort idiom.
//
// Anything else needs an explicit line-scoped
// `//simlint:allow maporder -- reason`.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"uvmsim/internal/lint"
)

// Analyzer is the maporder checker.
var Analyzer = &lint.Analyzer{
	Name: "maporder",
	Doc:  "flags range-over-map and range-over-channel loops whose nondeterministic order can reach results or scheduling",
	Run:  run,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		lint.InspectStmtLists(f, func(list []ast.Stmt) {
			for i, st := range list {
				rng, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := pass.TypeOf(rng.X)
				if t == nil {
					continue
				}
				var order string
				switch t.Underlying().(type) {
				case *types.Map:
					order = "map iteration"
				case *types.Chan:
					order = "channel receive"
				default:
					continue
				}
				if orderInsensitive(pass, rng.Body.List) {
					continue
				}
				if appendThenSort(pass, rng, list[i+1:]) {
					continue
				}
				pass.Reportf(rng.Pos(), "%s order is nondeterministic here; sort first, make the body order-insensitive, or annotate //simlint:allow maporder", order)
			}
		})
	}
}

// orderInsensitive reports whether every statement in the loop body is
// provably independent of iteration order.
func orderInsensitive(pass *lint.Pass, stmts []ast.Stmt) bool {
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(pass, st) {
				return false
			}
		case *ast.IncDecStmt:
			if !integerTarget(pass, st.X) {
				return false
			}
		case *ast.IfStmt:
			// The condition only reads; reads are deterministic per key.
			if !orderInsensitive(pass, st.Body.List) {
				return false
			}
			switch e := st.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !orderInsensitive(pass, e.List) {
					return false
				}
			case *ast.IfStmt:
				if !orderInsensitive(pass, []ast.Stmt{e}) {
					return false
				}
			default:
				return false
			}
		case *ast.BlockStmt:
			if !orderInsensitive(pass, st.List) {
				return false
			}
		case *ast.BranchStmt:
			if st.Tok != token.CONTINUE {
				return false
			}
		case *ast.EmptyStmt:
		default:
			return false
		}
	}
	return true
}

// orderInsensitiveAssign accepts map-index stores (m[k] = v) and
// commutative integer accumulation (x += v, x |= v, x &= v, x ^= v).
func orderInsensitiveAssign(pass *lint.Pass, st *ast.AssignStmt) bool {
	switch st.Tok {
	case token.ASSIGN:
		for _, lhs := range st.Lhs {
			lhs = ast.Unparen(lhs)
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			idx, ok := lhs.(*ast.IndexExpr)
			if !ok {
				return false
			}
			xt := pass.TypeOf(idx.X)
			if xt == nil {
				return false
			}
			if _, isMap := xt.Underlying().(*types.Map); !isMap {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return len(st.Lhs) == 1 && integerTarget(pass, st.Lhs[0])
	}
	return false
}

// integerTarget reports whether e has an integer type (commutative
// accumulation is order-insensitive for integers, but not for floats,
// whose rounding depends on summation order).
func integerTarget(pass *lint.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// appendThenSort recognizes the collect-then-sort idiom: the body only
// appends to local slices (x = append(x, ...)) or does otherwise
// order-insensitive work, and every appended slice is handed to a sort
// call somewhere in the remainder of the enclosing statement list.
func appendThenSort(pass *lint.Pass, rng *ast.RangeStmt, rest []ast.Stmt) bool {
	var appended []types.Object
	for _, st := range rng.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if obj := selfAppendTarget(pass, as); obj != nil {
				appended = append(appended, obj)
				continue
			}
		}
		if !orderInsensitive(pass, []ast.Stmt{st}) {
			return false
		}
	}
	if len(appended) == 0 {
		return false
	}
	for _, obj := range appended {
		if !sortedLater(pass, obj, rest) {
			return false
		}
	}
	return true
}

// selfAppendTarget returns the object of x in `x = append(x, ...)`, or
// nil when the statement has another shape.
func selfAppendTarget(pass *lint.Pass, as *ast.AssignStmt) types.Object {
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || arg0.Name != id.Name {
		return nil
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil || obj != pass.Info.ObjectOf(arg0) {
		return nil
	}
	return obj
}

// sortNames are the sorting entry points of sort and slices whose
// presence sanctions a collected slice.
var sortNames = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true,
}

// sortedLater reports whether some statement in rest calls a sort
// function on obj.
func sortedLater(pass *lint.Pass, obj types.Object, rest []ast.Stmt) bool {
	for _, st := range rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			f := lint.CalleeFunc(pass.Info, call)
			if f == nil || f.Pkg() == nil {
				return true
			}
			if pkg := f.Pkg().Path(); pkg != "sort" && pkg != "slices" {
				return true
			}
			if !sortNames[f.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if lint.MentionsObject(pass.Info, arg, obj) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
