// Package exp regenerates every table and figure of the paper's
// evaluation (§5–§7) on the simulator: each experiment builds the
// machine(s) it needs, runs the workloads, and returns a Report with the
// same rows/series the paper plots, plus scalar metrics that the
// repository's benchmarks and tests assert on.
//
// The package is split into the experiment runners (fig*.go, tables.go,
// server.go), the registry that names them (registry.go), and the Report
// type they produce (this file). Reports render both as aligned plain
// text (String) and as deterministic JSON (encoding/json); orchestration
// — worker pools, derived seeds, timing — lives one layer up in
// internal/engine, and HTTP serving in internal/serve.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a printable result table.
type Table struct {
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText writes the table as aligned plain text: the title, if any,
// then the header, a dash rule and the rows, each cell padded to its
// column's width and cells joined by two spaces.
func (t *Table) WriteText(w io.Writer) error {
	var b strings.Builder
	t.render(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Table) render(b *strings.Builder) {
	if t.Title != "" {
		fmt.Fprintf(b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// Report is the structured output of one experiment. Its JSON encoding is
// deterministic for deterministic content (encoding/json emits map keys
// in sorted order), which the engine's parallel-vs-serial equality
// guarantee and the serve cache rely on.
type Report struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Tables hold the figure/table data in the paper's layout.
	Tables []*Table `json:"tables,omitempty"`
	// Metrics are scalar results keyed by name (asserted by tests,
	// reported by benchmarks).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Notes records caveats and paper-vs-measured commentary.
	Notes []string `json:"notes,omitempty"`
}

// NewReport creates an empty report.
func NewReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}}
}

// Metric records a scalar result. Names are normalized to contain no
// whitespace so they can double as testing.B metric units.
func (r *Report) Metric(name string, v float64) {
	r.Metrics[strings.ReplaceAll(name, " ", "_")] = v
}

// Note appends a commentary line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Table adds and returns a new table.
func (r *Report) Table(title string, header ...string) *Table {
	t := &Table{Title: title, Header: header}
	r.Tables = append(r.Tables, t)
	return t
}

// String renders the report as plain text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		t.render(&b)
	}
	if len(r.Metrics) > 0 {
		b.WriteString("\nmetrics:\n")
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-42s %.4g\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
