// Package lint is a small, dependency-free analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast and go/types. It exists because the repository's
// correctness story rests on conventions a compiler never checks —
// deterministic iteration, simulated time only, saturating counter
// arithmetic, allocation-free hot paths — and conventions rot unless a
// machine enforces them.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics through its Pass. The cmd/simlint multichecker loads every
// package in the module (see LoadPackages) and runs the full suite;
// per-analyzer tests run fixtures through the same code path via
// internal/lint/linttest.
//
// # Suppressions
//
// A finding can be silenced at the exact line it occurs (or the line
// immediately below a standalone comment) with
//
//	//simlint:allow <name>[,<name>...] -- reason
//
// The reason is mandatory and machine-enforced: an allow comment
// without a trailing "-- reason" clause still suppresses (so the tree
// stays fixable one finding at a time) but raises its own
// "allowreason" diagnostic until a reason is written. Suppressions are
// deliberately line-scoped: there is no file- or package-wide escape
// hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and in //simlint:allow
	// suppressions. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects pass's package and reports findings via pass.Reportf.
	Run func(*Pass)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset resolves token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression, object and selection
	// facts for Files.
	Info *types.Info

	// allow maps filename -> line -> analyzer names suppressed on that
	// line (built once from //simlint:allow comments).
	allow map[string]map[int][]string
	// bareAllows are the positions of allow comments missing the
	// mandatory "-- reason" clause; RunOn reports each as an
	// "allowreason" finding.
	bareAllows []token.Position
}

// NewPackage assembles a Package from already type-checked parts and
// indexes its suppression comments. linttest uses this for fixture
// packages; LoadPackages uses it for real ones.
func NewPackage(path string, fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info) *Package {
	p := &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info,
		allow: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, hasReason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if !hasReason {
					p.bareAllows = append(p.bareAllows, pos)
				}
				lines := p.allow[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					p.allow[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
			}
		}
	}
	return p
}

// parseAllow extracts the analyzer names of a //simlint:allow comment
// and whether the mandatory "-- reason" clause is present and
// non-empty.
func parseAllow(text string) (names []string, hasReason, ok bool) {
	body, ok := strings.CutPrefix(text, "//simlint:allow")
	if !ok {
		body, ok = strings.CutPrefix(text, "// simlint:allow")
	}
	if !ok {
		return nil, false, false
	}
	if i := strings.Index(body, "--"); i >= 0 {
		hasReason = strings.TrimSpace(body[i+2:]) != ""
		body = body[:i]
	}
	for _, n := range strings.Split(body, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, hasReason, len(names) > 0
}

// suppressed reports whether analyzer name is allowed at pos: by a
// comment on the same line, or on the line directly above.
func (p *Package) suppressed(pos token.Position, name string) bool {
	lines := p.allow[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, n := range lines[l] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// Pass carries one analyzer's view of one package plus the diagnostic
// sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path (Pkg.Path() for real loads; the
	// fixture-relative path in tests).
	Path string
	// Prog is the whole-load view for interprocedural analyzers: every
	// package in this run plus the call graph over them.
	Prog *Program

	pkg  *Package
	sink *[]Diagnostic
}

// Reportf records a finding at pos unless a //simlint:allow suppression
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.suppressed(position, p.Analyzer.Name) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// RunAnalyzers applies every analyzer to every package and returns the
// surviving diagnostics in deterministic (file, line, column, analyzer)
// order. The packages double as the interprocedural Program: call-graph
// queries see exactly this load.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunOn(BuildProgram(pkgs), pkgs, analyzers)
}

// RunOn applies the analyzers to the target packages with prog as the
// interprocedural view; targets may be a subset of prog's packages
// (linttest analyzes one fixture package against a program spanning
// its fixture imports). Framework-level findings — allow comments
// missing their mandatory reason — are reported here too, once per
// target package, under the "allowreason" name.
func RunOn(prog *Program, targets []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range targets {
		for _, pos := range pkg.bareAllows {
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "allowreason",
				Message:  `//simlint:allow needs a written reason: append " -- <why this finding is acceptable>"`,
			})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Prog:     prog,
				pkg:      pkg,
				sink:     &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// CalleeFunc resolves the function object a call expression invokes
// (package-level functions and methods; nil for builtins, conversions,
// and calls through function-typed values).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// HasDirective reports whether the comment group contains the given
// machine directive (e.g. "sim:hotpath") as a whole "//"-comment, with
// or without trailing text.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	want := "//" + directive
	for _, c := range doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// InspectStmtLists calls fn for every statement list in the file (block
// bodies, case clauses, comm clauses). Analyzers that need ordering
// context — "is the slice sorted after the loop", "was this event
// rescheduled before reuse" — work on statement lists rather than lone
// nodes.
func InspectStmtLists(f *ast.File, fn func([]ast.Stmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

// IsUint64 reports whether t's underlying type is exactly uint64.
func IsUint64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// MentionsObject reports whether the expression tree references obj.
func MentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
