// Package report renders experiment results as aligned text tables and
// CSV, matching the rows and series of the paper's figures.
package report

import (
	"fmt"
	"strings"
)

// Row is one workload's series in a table.
type Row struct {
	Label  string
	Values []float64
}

// Table is one figure's data: workloads down the rows, schemes or
// parameters across the columns.
type Table struct {
	Title   string
	Metric  string // e.g. "Runtime (normalized to baseline)"
	Columns []string
	Rows    []Row
}

// Add appends a row, enforcing column arity.
func (t *Table) Add(label string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("report: row %q has %d values for %d columns", label, len(values), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Format renders the table as aligned text with percentages.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", t.Title, t.Metric)
	width := 10
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*s", width, fmt.Sprintf("%.2f%%", v*100))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (raw ratios).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("workload")
	for _, c := range t.Columns {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%.6f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Ratio safely divides, mapping x/0 to 0 (used for thrash counts where
// the baseline itself can be zero, e.g. backprop in Fig. 7).
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
