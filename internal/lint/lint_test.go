package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The tests type-check a small throwaway module through the same
// LoadPackages path cmd/simlint uses, so one load exercises the
// loader, the call graph and the framework plumbing against real
// go/types facts.

const modA = `package a

import "tmod/b"

//simlint:allow maporder
var bare int

// Hop returns a wall-clock value through b.
func Hop() int64 { return b.Now() }

// Calls exists to give the call graph a second hop.
func Calls() int64 { return Hop() }

type T struct{ n int }

// Bump is a method, for FuncName's receiver rendering.
func (t *T) Bump() { t.n++ }

//simlint:allow testlint -- suppressed by the comment line above
func Above() {}

func Same() {} //simlint:allow testlint -- suppressed on the same line

func Flagged() {}
`

const modB = `package b

import "time"

// Now reads the wall clock.
func Now() int64 { return time.Now().UnixNano() }

// Clean returns a constant.
func Clean() int64 { return 42 }
`

var shared struct {
	sync.Once
	dir  string
	pkgs []*Package
	prog *Program
	err  error
}

// TestMain removes the throwaway module once every test has used it.
func TestMain(m *testing.M) {
	code := m.Run()
	if shared.dir != "" {
		os.RemoveAll(shared.dir)
	}
	os.Exit(code)
}

// loadShared loads the throwaway module once per test binary.
func loadShared(t *testing.T) ([]*Package, *Program) {
	t.Helper()
	shared.Do(func() {
		dir, err := os.MkdirTemp("", "linttestmod")
		if err != nil {
			shared.err = err
			return
		}
		shared.dir = dir
		files := map[string]string{
			"go.mod": "module tmod\n\ngo 1.23\n",
			"a/a.go": modA,
			"b/b.go": modB,
		}
		for name, content := range files {
			path := filepath.Join(dir, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				shared.err = err
				return
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				shared.err = err
				return
			}
		}
		shared.pkgs, shared.err = LoadPackages(dir, "./...")
		if shared.err == nil {
			shared.prog = BuildProgram(shared.pkgs)
		}
	})
	if shared.err != nil {
		t.Fatalf("loading test module: %v", shared.err)
	}
	return shared.pkgs, shared.prog
}

// fn looks up a declared function by package path and name.
func fn(t *testing.T, pkgs []*Package, path, name string) *types.Func {
	t.Helper()
	for _, p := range pkgs {
		if p.Path != path {
			continue
		}
		if obj, ok := p.Types.Scope().Lookup(name).(*types.Func); ok {
			return obj
		}
	}
	t.Fatalf("function %s.%s not found", path, name)
	return nil
}

func TestLoadPackages(t *testing.T) {
	pkgs, _ := loadShared(t)
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	if pkgs[0].Path != "tmod/a" || pkgs[1].Path != "tmod/b" {
		t.Errorf("paths %q, %q: want tmod/a, tmod/b (sorted)", pkgs[0].Path, pkgs[1].Path)
	}
}

func TestProgramCallGraph(t *testing.T) {
	pkgs, prog := loadShared(t)
	hop := fn(t, pkgs, "tmod/a", "Hop")
	now := fn(t, pkgs, "tmod/b", "Now")
	if prog.Decl(hop) == nil {
		t.Fatal("Decl(Hop) is nil")
	}
	if prog.Decl(nil) != nil {
		t.Error("Decl(nil) should be nil")
	}
	found := false
	for _, c := range prog.callees[hop] {
		if c == now {
			found = true
		}
	}
	if !found {
		t.Errorf("callees of Hop = %v, missing b.Now", prog.callees[hop])
	}
}

func TestFuncName(t *testing.T) {
	pkgs, _ := loadShared(t)
	if got := FuncName(fn(t, pkgs, "tmod/b", "Now")); got != "b.Now" {
		t.Errorf("FuncName(Now) = %q, want b.Now", got)
	}
	var bump *types.Func
	for _, p := range pkgs {
		if p.Path != "tmod/a" {
			continue
		}
		tObj := p.Types.Scope().Lookup("T")
		named := tObj.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == "Bump" {
				bump = named.Method(i)
			}
		}
	}
	if bump == nil {
		t.Fatal("method T.Bump not found")
	}
	if got := FuncName(bump); got != "T.Bump" {
		t.Errorf("FuncName(Bump) = %q, want T.Bump", got)
	}
	if got := FuncName(nil); got != "<unknown>" {
		t.Errorf("FuncName(nil) = %q", got)
	}
}

func TestFixpointPropagation(t *testing.T) {
	pkgs, prog := loadShared(t)
	why := prog.Fixpoint(func(f *types.Func, decl *FuncDecl) (string, bool) {
		if f.Name() == "Now" {
			return "reads the clock", true
		}
		return "", false
	})
	if why[fn(t, pkgs, "tmod/b", "Now")] != "reads the clock" {
		t.Errorf("seed reason lost: %q", why[fn(t, pkgs, "tmod/b", "Now")])
	}
	if got := why[fn(t, pkgs, "tmod/a", "Hop")]; got != "calls b.Now, which reads the clock" {
		t.Errorf("Hop reason = %q", got)
	}
	if got := why[fn(t, pkgs, "tmod/a", "Calls")]; !strings.HasPrefix(got, "calls a.Hop, which ") {
		t.Errorf("Calls reason = %q, want two-hop chain", got)
	}
	if _, ok := why[fn(t, pkgs, "tmod/b", "Clean")]; ok {
		t.Error("Clean should not be in the fixpoint")
	}
}

// TestAllowReason: an allow comment without "-- reason" still
// suppresses but raises its own framework finding.
func TestAllowReason(t *testing.T) {
	pkgs, _ := loadShared(t)
	diags := RunAnalyzers(pkgs, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the bare-allow finding: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "allowreason" {
		t.Errorf("analyzer = %q, want allowreason", d.Analyzer)
	}
	if !strings.Contains(d.Message, "needs a written reason") {
		t.Errorf("message = %q", d.Message)
	}
	if !strings.HasSuffix(d.Pos.Filename, "a.go") {
		t.Errorf("finding at %s, want a.go", d.Pos.Filename)
	}
}

// testlintAnalyzer flags the three suppression-demo functions; only
// the unsuppressed one must survive.
func TestSuppression(t *testing.T) {
	pkgs, _ := loadShared(t)
	a := &Analyzer{
		Name: "testlint",
		Doc:  "test analyzer",
		Run: func(pass *Pass) {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					switch fd.Name.Name {
					case "Above", "Same", "Flagged":
						pass.Reportf(fd.Pos(), "func %s flagged", fd.Name.Name)
					}
				}
			}
		},
	}
	var got []Diagnostic
	for _, d := range RunAnalyzers(pkgs, []*Analyzer{a}) {
		if d.Analyzer == "testlint" {
			got = append(got, d)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0].Message, "Flagged") {
		t.Fatalf("suppression failed: got %v, want only Flagged", got)
	}
}

func TestHasDirective(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", `package d

//sim:hotpath trailing text
func Hot() {}

// plain comment
func Cold() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold *ast.FuncDecl
	for _, decl := range f.Decls {
		fd := decl.(*ast.FuncDecl)
		switch fd.Name.Name {
		case "Hot":
			hot = fd
		case "Cold":
			cold = fd
		}
	}
	if !HasDirective(hot.Doc, "sim:hotpath") {
		t.Error("Hot should carry the directive")
	}
	if HasDirective(cold.Doc, "sim:hotpath") {
		t.Error("Cold should not carry the directive")
	}
	if HasDirective(nil, "sim:hotpath") {
		t.Error("nil doc has no directives")
	}
}

func TestIsUint64(t *testing.T) {
	if !IsUint64(types.Typ[types.Uint64]) {
		t.Error("uint64 not recognized")
	}
	if IsUint64(types.Typ[types.Int64]) || IsUint64(nil) {
		t.Error("non-uint64 accepted")
	}
}
