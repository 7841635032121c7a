// Package experiments implements the reproduction harness: one
// experiment per measurable claim of the paper (see DESIGN.md §3 for
// the claim-to-experiment index). Each experiment returns a Table whose
// rows are regenerated from scratch on every run; cmd/bench prints
// them (`go run ./cmd/bench [-exp eN] [-quick]`), and bench_test.go
// wraps them as Go benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being reproduced
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "   %s\n", strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "   note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes: Quick for unit/bench smoke runs, Full
// for the tables `go run ./cmd/bench` prints.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func pick[T any](s Scale, quick, full T) T {
	if s == Full {
		return full
	}
	return quick
}

// Runner names an experiment and produces its table.
type Runner struct {
	ID  string
	Run func(Scale) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{ID: "e1", Run: E1RoundsVsN},
		{ID: "e2", Run: E2LSSTStretch},
		{ID: "e3", Run: E3Sparsifier},
		{ID: "e4", Run: E4CongestionApprox},
		{ID: "e5", Run: E5ApproxQuality},
		{ID: "e6", Run: E6TreeDecomposition},
		{ID: "e7", Run: E7GradientIterations},
		{ID: "e8", Run: E8ResidualRouting},
		{ID: "e9", Run: E9ClusterSimulation},
		{ID: "e10", Run: E10Spanner},
	}
}
