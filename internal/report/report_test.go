package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Figure X",
		Metric:  "Runtime normalized",
		Columns: []string{"A", "B"},
	}
	t.Add("fdtd", 1.0, 0.5)
	t.Add("ra", 1.0, 0.2177)
	return t
}

func TestAddArityPanics(t *testing.T) {
	tab := sample()
	defer func() {
		if recover() == nil {
			t.Error("wrong arity did not panic")
		}
	}()
	tab.Add("bad", 1.0)
}

func TestFormat(t *testing.T) {
	out := sample().Format()
	for _, frag := range []string{"Figure X", "Runtime normalized", "workload", "A", "B", "fdtd", "50.00%", "21.77%"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Format missing %q:\n%s", frag, out)
		}
	}
	// All rows same column count: lines align.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestCSV(t *testing.T) {
	out := sample().CSV()
	if !strings.HasPrefix(out, "workload,A,B\n") {
		t.Fatalf("bad header:\n%s", out)
	}
	if !strings.Contains(out, "ra,1.000000,0.217700") {
		t.Fatalf("missing row:\n%s", out)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(5, 10) != 0.5 {
		t.Fatal("Ratio wrong")
	}
	if Ratio(5, 0) != 0 {
		t.Fatal("Ratio div-by-zero not 0")
	}
	if Ratio(0, 0) != 0 {
		t.Fatal("Ratio 0/0 not 0")
	}
}
