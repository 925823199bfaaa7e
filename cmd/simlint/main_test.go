package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoRoot locates the module root relative to this source file so the
// test is independent of the working directory go test chose.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestRepoIsClean is the self-hosting smoke test: the full analyzer
// suite over the whole repository must report nothing. A finding here
// means either a real violation slipped in or an analyzer regressed
// into a false positive — both block CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint in -short mode")
	}
	var stdout, stderr bytes.Buffer
	code := run(nil, repoRoot(t), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("simlint ./... exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); out != "" {
		t.Errorf("expected no findings, got:\n%s", out)
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, ".", &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{
		"eventseq", "goroleak", "hotalloc", "lockhold",
		"maporder", "satarith", "statsowner", "wallclock",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

func TestOnlyUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, ".", &stdout, &stderr); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnostic: %s", stderr.String())
	}
}

// TestOnlySubset runs a single analyzer over the repo; exercises the
// -only selection path end to end.
func TestOnlySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint in -short mode")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "wallclock"}, repoRoot(t), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-only wallclock exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// A finding prints as file:line:col: message (analyzer), and simlint
// exits 1.
func TestFindingIsReported(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module tmod\n\ngo 1.21\n",
		"a.go": `package a

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "maporder"}, dir, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "a.go:5:2: ") || !strings.HasSuffix(out, " (maporder)\n") {
		t.Fatalf("finding printed as %q, want file:line:col: message (maporder)", out)
	}
}
