// Package linttest runs a lint.Analyzer over source fixtures and checks
// its diagnostics against expectations written in the fixtures
// themselves — the same contract as golang.org/x/tools/go/analysis/
// analysistest, reimplemented on the standard library.
//
// Fixtures live under testdata/src/<importpath>/ next to the analyzer's
// test. Each line that should be flagged carries a trailing comment
//
//	// want "regexp"
//
// (multiple quoted or backquoted regexps for multiple findings on one
// line). Fixture packages may import each other by their
// testdata-relative paths and may import the standard library; stdlib
// imports resolve through `go list -export` compiler export data,
// fixture imports are type-checked from source recursively.
package linttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uvmsim/internal/lint"
)

// Run loads each fixture package (an import path under testdata/src),
// applies the analyzer, and reports any mismatch between produced
// diagnostics and // want expectations as test failures.
//
// Interprocedural analyzers see a lint.Program spanning the fixture
// package and every fixture package it (transitively) imports, so a
// fixture can demonstrate cross-package flows; diagnostics are checked
// for the named fixture only.
func Run(t *testing.T, a *lint.Analyzer, fixtures ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	for _, fix := range fixtures {
		ld := &loader{
			root: root,
			fset: token.NewFileSet(),
			pkgs: make(map[string]*fixturePkg),
			lint: make(map[string]*lint.Package),
		}
		fp, err := ld.load(fix)
		if err != nil {
			t.Fatalf("linttest: loading fixture %q: %v", fix, err)
		}
		target := ld.lintPackage(fix)
		var paths []string
		for p := range ld.pkgs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		all := make([]*lint.Package, 0, len(paths))
		for _, p := range paths {
			all = append(all, ld.lintPackage(p))
		}
		diags := lint.RunOn(lint.BuildProgram(all), []*lint.Package{target}, []*lint.Analyzer{a})
		checkExpectations(t, ld.fset, fix, fp.files, diags)
	}
}

// expectation is one // want regexp with its location.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// checkExpectations matches diagnostics against // want comments.
func checkExpectations(t *testing.T, fset *token.FileSet, fixture string, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				res, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, re := range res {
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", fixture, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", fixture, w.re, filepath.Base(w.file), w.line)
		}
	}
}

// parseWant extracts the regexps of a `// want "re" "re2"` comment.
func parseWant(text string) ([]*regexp.Regexp, bool) {
	body, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		body, ok = strings.CutPrefix(text, "//want ")
	}
	if !ok {
		return nil, false
	}
	var res []*regexp.Regexp
	rest := strings.TrimSpace(body)
	for rest != "" {
		var lit string
		switch rest[0] {
		case '"':
			end := strings.Index(rest[1:], `"`)
			if end < 0 {
				return nil, false
			}
			raw := rest[:end+2]
			var err error
			lit, err = strconv.Unquote(raw)
			if err != nil {
				return nil, false
			}
			rest = strings.TrimSpace(rest[end+2:])
		case '`':
			end := strings.Index(rest[1:], "`")
			if end < 0 {
				return nil, false
			}
			lit = rest[1 : end+1]
			rest = strings.TrimSpace(rest[end+2:])
		default:
			return nil, false
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, false
		}
		res = append(res, re)
	}
	return res, len(res) > 0
}

// fixturePkg is one type-checked fixture package.
type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks fixture packages, resolving fixture-local imports
// from source and everything else from stdlib export data.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*fixturePkg
	lint map[string]*lint.Package
}

// lintPackage wraps a loaded fixture as a lint.Package exactly once,
// so the analysis target and the Program share pointers.
func (l *loader) lintPackage(path string) *lint.Package {
	if p, ok := l.lint[path]; ok {
		return p
	}
	fp := l.pkgs[path]
	p := lint.NewPackage(path, l.fset, fp.files, fp.types, fp.info)
	l.lint[path] = p
	return p
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle guard
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := lint.NewTypesInfo()
	conf := types.Config{Importer: (*fixtureImporter)(l), Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{files: files, types: tpkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

// fixtureImporter resolves imports during fixture type-checking.
type fixtureImporter loader

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(fi)
	if st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return stdlibImport(l.fset, path)
}

// stdlib export-data importing is shared across all fixture loads in the
// process: `go list -export` is not free, so resolved export files are
// cached per import path.
var stdlib struct {
	sync.Mutex
	exports map[string]string
	// imp must be bound to a single FileSet; positions inside imported
	// stdlib packages are irrelevant to fixtures, so a private one is
	// fine and lets every loader share one importer.
	fset *token.FileSet
	imp  types.Importer
}

func stdlibImport(_ *token.FileSet, path string) (*types.Package, error) {
	stdlib.Lock()
	defer stdlib.Unlock()
	if stdlib.imp == nil {
		stdlib.exports = make(map[string]string)
		stdlib.fset = token.NewFileSet()
		stdlib.imp = importer.ForCompiler(stdlib.fset, "gc", func(p string) (io.ReadCloser, error) {
			file, ok := stdlib.exports[p]
			if !ok {
				return nil, fmt.Errorf("linttest: no export data for %q", p)
			}
			return os.Open(file)
		})
	}
	if _, ok := stdlib.exports[path]; !ok {
		cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export", path)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("linttest: go list %s: %v\n%s", path, err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				stdlib.exports[p.ImportPath] = p.Export
			}
		}
	}
	return stdlib.imp.Import(path)
}
