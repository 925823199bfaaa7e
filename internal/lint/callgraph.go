package lint

import (
	"go/ast"
	"go/types"
)

// Program is the whole-module view analyzers use for interprocedural
// reasoning: every package loaded into one RunAnalyzers invocation,
// indexed so a *types.Func resolves to its declaration (when the
// declaration is part of the load) and a lightweight call graph can be
// walked without re-traversing ASTs.
//
// The graph is deliberately syntactic: edges come from direct calls
// resolved by the type checker (CalleeFunc). Calls through
// function-typed values, interface method sets and reflection are not
// modeled — analyzers built on the Program must treat "no edge" as
// "unknown", not "cannot call". For the conventions simlint enforces
// (blocking ops under locks, goroutine shutdown) that under-
// approximation is the right default: it misses exotic flows instead
// of drowning real ones in false positives.
type Program struct {
	Packages []*Package

	// decls maps a function object to its syntax and owning package.
	decls map[*types.Func]*FuncDecl
	// callees maps a function object to the distinct functions its body
	// calls directly, in first-call order.
	callees map[*types.Func][]*types.Func
}

// FuncDecl pairs a function declaration with the package that owns it
// (whose Info resolves identifiers inside the body).
type FuncDecl struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// BuildProgram indexes the packages' function declarations and direct
// call edges. RunAnalyzers calls it once per run; linttest builds one
// per fixture load spanning the fixture and its fixture imports.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages: pkgs,
		decls:    make(map[*types.Func]*FuncDecl),
		callees:  make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.decls[obj] = &FuncDecl{Decl: fd, Pkg: pkg}
				seen := make(map[*types.Func]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeFunc(pkg.Info, call); callee != nil && !seen[callee] {
						seen[callee] = true
						prog.callees[obj] = append(prog.callees[obj], callee)
					}
					return true
				})
			}
		}
	}
	return prog
}

// Decl returns the declaration of fn when fn was declared in a loaded
// package (nil for imports, interface methods and func literals).
func (p *Program) Decl(fn *types.Func) *FuncDecl {
	if p == nil {
		return nil
	}
	return p.decls[fn]
}

// Callees returns the functions fn's body calls directly.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	if p == nil {
		return nil
	}
	return p.callees[fn]
}

// Funcs calls visit for every declared function in the program, in
// package load order then file order. Iteration is deterministic.
func (p *Program) Funcs(visit func(fn *types.Func, decl *FuncDecl)) {
	if p == nil {
		return
	}
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					visit(obj, p.decls[obj])
				}
			}
		}
	}
}

// Fixpoint computes the set of declared functions satisfying a
// property that propagates up the call graph: a function is in the set
// when seed reports it directly, or when any direct callee already in
// the set justifies it. The why map records, for each member, the
// reason string of the seed (for direct members) or of the callee that
// pulled it in (prefixed by via), so diagnostics can narrate the chain.
//
// seed is consulted once per declared function; propagation then
// iterates to a fixed point. The result is deterministic: functions
// are visited in Program order and the first justification wins.
func (p *Program) Fixpoint(seed func(fn *types.Func, decl *FuncDecl) (string, bool)) map[*types.Func]string {
	why := make(map[*types.Func]string)
	p.Funcs(func(fn *types.Func, decl *FuncDecl) {
		if reason, ok := seed(fn, decl); ok {
			why[fn] = reason
		}
	})
	for changed := true; changed; {
		changed = false
		p.Funcs(func(fn *types.Func, _ *FuncDecl) {
			if _, done := why[fn]; done {
				return
			}
			for _, callee := range p.callees[fn] {
				if reason, ok := why[callee]; ok {
					why[fn] = "calls " + FuncName(callee) + ", which " + reason
					changed = true
					return
				}
			}
		})
	}
	return why
}

// FuncName renders fn as package.Name or package.(Recv).Name for
// diagnostics.
func FuncName(fn *types.Func) string {
	if fn == nil {
		return "<unknown>"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Name() != "" {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
