// Package eventseq checks sim.Engine scheduling call sites for the two
// statically-visible ways to corrupt the event sequence:
//
//   - a cycle argument computed by unsigned subtraction. sim.Cycle is
//     uint64, so "now - latency" underflows to an enormous future cycle
//     instead of going negative, and At panics only for the past — an
//     underflow silently stalls the simulation. Delays must be computed
//     additively (or the subtraction proven safe and annotated).
//
//   - the same event variable (a closure or a Handler) passed to two
//     schedule calls in one statement sequence with no rebinding in
//     between. A prebound event is scheduled once per completion;
//     scheduling one twice back-to-back fires it twice at
//     indistinguishable (cycle, seq) positions — almost always a
//     copy-paste bug that a deterministic run happily reproduces.
//
// The analyzer recognizes the engine by shape — methods At, After,
// Schedule, ScheduleAfter on a type named Engine in a package named
// sim — so fixtures and any future engine package are both covered.
package eventseq

import (
	"go/ast"
	"go/token"
	"go/types"

	"uvmsim/internal/lint"
)

// Analyzer is the eventseq checker.
var Analyzer = &lint.Analyzer{
	Name: "eventseq",
	Doc:  "rejects sim.Engine schedule calls with underflow-prone cycle math or back-to-back reuse of one event",
	Run:  run,
}

// scheduleMethods are the Engine entry points; all take (cycle, event),
// the event a func or, for Schedule, a Handler.
var scheduleMethods = map[string]bool{
	"At": true, "After": true, "Schedule": true, "ScheduleAfter": true,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isScheduleCall(pass, call) || len(call.Args) < 2 {
				return true
			}
			if sub := findUnsignedSub(pass, call.Args[0]); sub != nil {
				pass.Reportf(sub.OpPos, "cycle argument uses unsigned subtraction, which underflows instead of scheduling in the past; compute the target cycle additively")
			}
			return true
		})
		lint.InspectStmtLists(f, func(list []ast.Stmt) {
			checkReuse(pass, list)
		})
	}
}

// isScheduleCall reports whether call invokes a schedule method of a
// sim.Engine.
func isScheduleCall(pass *lint.Pass, call *ast.CallExpr) bool {
	fn := lint.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "sim" || !scheduleMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

// findUnsignedSub returns the first unsigned-typed subtraction inside e.
func findUnsignedSub(pass *lint.Pass, e ast.Expr) *ast.BinaryExpr {
	var found *ast.BinaryExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.SUB {
			return true
		}
		if tv, ok := pass.Info.Types[b]; ok && tv.Value != nil {
			return true // constant: checked at compile time
		}
		t := pass.TypeOf(b)
		if t == nil {
			return true
		}
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsUnsigned != 0 {
			found = b
			return false
		}
		return true
	})
	return found
}

// checkReuse scans one statement sequence for the same event variable
// being scheduled twice without rebinding.
func checkReuse(pass *lint.Pass, list []ast.Stmt) {
	scheduled := map[*types.Var]bool{}
	for _, st := range list {
		// A rebinding of the variable resets its scheduled state.
		if as, ok := st.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok {
						delete(scheduled, v)
					}
				}
			}
		}
		ast.Inspect(st, func(n ast.Node) bool {
			if _, ok := n.(*ast.BlockStmt); ok {
				// Nested blocks are their own statement sequences (handled
				// by their own checkReuse pass), and calls in exclusive
				// branches are not back-to-back.
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isScheduleCall(pass, call) || len(call.Args) < 2 {
				return true
			}
			id, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
			if !ok {
				return true
			}
			// Only event *variables* are tracked: scheduling a stateless
			// package-level function twice is a legitimate pattern.
			obj, ok := pass.Info.ObjectOf(id).(*types.Var)
			if !ok {
				return true
			}
			if scheduled[obj] {
				pass.Reportf(call.Args[1].Pos(), "event %s is scheduled twice in this sequence without rebinding; scheduled events fire once per schedule call", id.Name)
			}
			scheduled[obj] = true
			return true
		})
	}
}
