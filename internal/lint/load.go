package lint

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
	"runtime"
	"sort"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadPackages loads and type-checks every package matched by patterns
// (relative to dir), resolving imports through compiler export data
// produced by `go list -export`. Test files are not loaded: the
// invariants simlint enforces are about simulator code, and tests
// legitimately use wall clocks, global rand and unsorted iteration.
//
// The approach mirrors what golang.org/x/tools/go/packages does in
// LoadTypes mode, without the dependency: one `go list -export -deps`
// invocation yields, for every transitive dependency, an export-data
// file that go/importer can read, and each target package is then
// parsed and type-checked from source against those.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list failed: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := &sourceFirstImporter{
		checked: make(map[string]*types.Package),
		export: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
			return os.Open(file)
		}),
	}

	// `go list -deps` emits dependencies before dependents; checking
	// targets in that order lets a target's import of another target
	// resolve to the source-checked package rather than export data, so
	// a *types.Func seen at a call site in one package is the same
	// object as its definition in another — the identity the call graph
	// and its Fixpoint summaries key on.
	var pkgs []*Package
	for _, t := range targets {
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			files = append(files, f)
		}
		info := NewTypesInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", t.ImportPath, err)
		}
		imp.checked[t.ImportPath] = tpkg
		pkgs = append(pkgs, NewPackage(t.ImportPath, fset, files, tpkg, info))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// sourceFirstImporter resolves imports of already-source-checked target
// packages to those packages (preserving object identity across the
// load) and everything else through compiler export data.
type sourceFirstImporter struct {
	checked map[string]*types.Package
	export  types.Importer
}

func (si *sourceFirstImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.checked[path]; ok {
		return p, nil
	}
	return si.export.Import(path)
}

// NewTypesInfo returns a types.Info with every fact map analyzers rely
// on allocated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
