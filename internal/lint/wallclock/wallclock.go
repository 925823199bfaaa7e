// Package wallclock bans wall-clock time and the global math/rand
// source from the module. All simulated time must come from the
// sim.Engine clock and all randomness from explicitly seeded
// *rand.Rand sources; time.Now in a model, or a global rand.Intn, makes
// runs unreproducible in a way no golden test reliably catches.
//
// The check covers every package of the main module, CLIs and examples
// included: a clock read in a CLI is one assignment away from a result
// file or a serve cache key. Only the uvmsim/bench module, which times
// real execution, is exempt. Calls to time.Now, time.Since and
// time.Until are flagged, as is every package-level math/rand function
// that draws from the process-global source (rand.Intn, rand.Float64,
// rand.Shuffle, ...). Constructors that build seeded sources (rand.New,
// rand.NewSource, rand.NewZipf) and methods on an explicit *rand.Rand
// stay legal.
package wallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"uvmsim/internal/lint"
)

// Analyzer is the wallclock checker.
var Analyzer = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "bans time.Now/Since/Until and the global math/rand source everywhere but the uvmsim/bench module",
	Run:  run,
}

// bannedTime are the wall-clock entry points of package time.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRand are the math/rand package-level functions that do not
// touch the global source.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *lint.Pass) {
	if pass.Path == "uvmsim/bench" || strings.HasPrefix(pass.Path, "uvmsim/bench/") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.CalleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// Methods (e.g. (*rand.Rand).Intn) use an explicit
				// source; only package-level functions are global.
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(call.Pos(), "time.%s reads the wall clock; results must depend on sim.Engine cycles only (host timing belongs in the bench module)", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					pass.Reportf(call.Pos(), "rand.%s draws from the global source; use an explicitly seeded *rand.Rand", fn.Name())
				}
			}
			return true
		})
	}
}
