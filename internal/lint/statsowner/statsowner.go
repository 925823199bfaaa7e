// Package statsowner enforces write ownership of the run-statistics
// counters. Every field of stats.Counters has exactly one component that
// is allowed to increment it (declared in the owners table below, which
// doubles as the authoritative ownership map); a second writer means
// double counting, and double-counted golden CSVs are the kind of bug
// that survives until someone cross-checks a figure against the paper.
//
// Rules, applied to every assignment, op-assignment and ++/--:
//
//   - a field of a struct defined in a package named "stats" may be
//     mutated only by its declared owner package (or by stats itself);
//     fields with no declared owner are flagged everywhere, so adding a
//     counter forces declaring its owner here;
//   - state of structs defined in a package named "obs" (snapshots,
//     registries, histograms) may be mutated only by obs itself —
//     components publish through the Counter/Gauge/Provider API.
package statsowner

import (
	"go/ast"
	"go/types"

	"uvmsim/internal/lint"
)

// Analyzer is the statsowner checker.
var Analyzer = &lint.Analyzer{
	Name: "statsowner",
	Doc:  "restricts mutation of stats.Counters fields to their declared owning package and obs state to obs",
	Run:  run,
}

// owners maps each stats.Counters field to the package names allowed to
// write it. Cycles is stamped by the simulation loop (core) on every
// GPU's counters, single-GPU and cluster runs alike; every field has a
// single writer.
var owners = map[string][]string{
	"Cycles": {"core"},

	"NearAccesses": {"uvm"},
	"RemoteReads":  {"uvm"},
	"RemoteWrites": {"uvm"},

	"FarFaults":    {"uvm"},
	"FaultBatches": {"uvm"},

	"MigratedPages":    {"uvm"},
	"PrefetchedPages":  {"uvm"},
	"ThrashedPages":    {"uvm"},
	"EvictedPages":     {"uvm"},
	"WrittenBackPages": {"uvm"},

	"H2DBytes": {"uvm"},
	"D2HBytes": {"uvm"},

	"TLBHits":       {"uvm"},
	"TLBMisses":     {"uvm"},
	"TLBShootdowns": {"uvm"},

	"Instructions":    {"gpu"},
	"MemInstructions": {"gpu"},
	"WarpsRetired":    {"gpu"},
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkTarget(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkTarget(pass, n.X)
			}
			return true
		})
	}
}

// checkTarget flags lhs when it writes counter state owned elsewhere.
func checkTarget(pass *lint.Pass, lhs ast.Expr) {
	e := ast.Unparen(lhs)
	if idx, ok := e.(*ast.IndexExpr); ok {
		// Writing into a map/slice field (snap.Counters[k] = v) mutates
		// the struct's state just the same.
		e = ast.Unparen(idx.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := pass.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	field := selection.Obj()
	if field.Pkg() == nil {
		return
	}
	defPkg := field.Pkg().Name()
	if defPkg != "stats" && defPkg != "obs" {
		return
	}
	if pass.Pkg.Name() == defPkg {
		return // the owning package maintains its own state freely
	}
	if defPkg == "obs" {
		pass.Reportf(lhs.Pos(), "obs state (%s.%s) may only be mutated inside obs; publish through Counter/Gauge/Provider", named(selection), field.Name())
		return
	}
	allowed, declared := owners[field.Name()]
	if !declared {
		pass.Reportf(lhs.Pos(), "stats field %s.%s has no declared owner; add it to the statsowner owners table", named(selection), field.Name())
		return
	}
	for _, pkg := range allowed {
		if pass.Pkg.Name() == pkg {
			return
		}
	}
	pass.Reportf(lhs.Pos(), "stats field %s.%s is owned by %v; mutating it from %s double-counts", named(selection), field.Name(), allowed, pass.Pkg.Name())
}

// named returns the receiver struct's type name for diagnostics.
func named(sel *types.Selection) string {
	t := sel.Recv()
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		default:
			return t.String()
		}
	}
}
