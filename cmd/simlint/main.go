// Command simlint machine-checks the repository's determinism and
// correctness conventions: the invariants every golden CSV and the ±2%
// bench gate silently rely on. It is a multichecker in the spirit of
// staticcheck's analyzer architecture, built on the stdlib-only
// framework in internal/lint.
//
// Usage:
//
//	simlint [-list] [-only name,name] [packages]
//
// With no package patterns it checks ./.... Exit status is 0 when the
// tree is clean, 1 when findings were reported, 2 on usage or load
// errors. Findings are suppressed line-by-line with
// `//simlint:allow <analyzer> -- reason`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uvmsim/internal/lint"
	"uvmsim/internal/lint/eventseq"
	"uvmsim/internal/lint/goroleak"
	"uvmsim/internal/lint/hotalloc"
	"uvmsim/internal/lint/lockhold"
	"uvmsim/internal/lint/maporder"
	"uvmsim/internal/lint/satarith"
	"uvmsim/internal/lint/statsowner"
	"uvmsim/internal/lint/wallclock"
)

// analyzers is the full suite in output order. New analyzers register
// here and in DESIGN.md §11/§16.
func analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		eventseq.Analyzer,
		goroleak.Analyzer,
		hotalloc.Analyzer,
		lockhold.Analyzer,
		maporder.Analyzer,
		satarith.Analyzer,
		statsowner.Analyzer,
		wallclock.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is the testable entry point: args are the command-line arguments,
// dir is the directory go list resolves patterns against.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-list] [-only name,name] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "simlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	diags := lint.RunAnalyzers(pkgs, suite)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
