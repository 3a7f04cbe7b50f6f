// Package report renders experiment results as aligned ASCII tables, CSV,
// and JSON, the output formats of every ptguard subcommand and bench harness.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple titled table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New builds a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	if len(t.Headers) == 0 {
		return errors.New("report: table has no columns")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	b.WriteString(line(t.Headers) + "\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	b.WriteString(line(sep) + "\n")
	for _, row := range t.Rows {
		b.WriteString(line(row) + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (headers first, no title).
func (t *Table) RenderCSV(w io.Writer) error {
	if len(t.Headers) == 0 {
		return errors.New("report: table has no columns")
	}
	var b strings.Builder
	b.WriteString(csvLine(t.Headers))
	for _, row := range t.Rows {
		b.WriteString(csvLine(row))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Results is the machine-readable form of a Table: the same title,
// headers and row cells, marshallable to/from JSON so campaign runners can
// persist and post-process reports programmatically.
type Results struct {
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// Results copies the table into its machine-readable form. Short rows are
// padded to the header width, mirroring AddRow; Rows is always non-nil so
// the JSON field encodes as [] rather than null.
func (t *Table) Results() Results {
	r := Results{
		Title:   t.Title,
		Headers: append([]string(nil), t.Headers...),
		Rows:    make([][]string, len(t.Rows)),
	}
	for i, row := range t.Rows {
		padded := make([]string, len(t.Headers))
		copy(padded, row)
		r.Rows[i] = padded
	}
	return r
}

// Table converts machine-readable results back into a renderable table.
func (r Results) Table() *Table {
	t := New(r.Title, r.Headers...)
	for _, row := range r.Rows {
		t.AddRow(row...)
	}
	return t
}

// RenderJSON writes the table as an indented JSON document (its Results
// form) followed by a newline.
func (t *Table) RenderJSON(w io.Writer) error {
	if len(t.Headers) == 0 {
		return errors.New("report: table has no columns")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Results())
}

// Output formats accepted by Emit and EmitAll.
const (
	FormatTable = "table"
	FormatCSV   = "csv"
	FormatJSON  = "json"
)

// Emit writes the table in the named format: "table" (aligned ASCII),
// "csv", or "json". An empty format selects "table"; anything else is an
// error.
func Emit(w io.Writer, t *Table, format string) error {
	if t == nil {
		return errors.New("report: nil table")
	}
	switch format {
	case FormatTable, "":
		return t.Render(w)
	case FormatCSV:
		return t.RenderCSV(w)
	case FormatJSON:
		return t.RenderJSON(w)
	default:
		return fmt.Errorf("report: unknown output format %q (want table, csv, or json)", format)
	}
}

// EmitAll writes several tables in the named format. Table output separates
// tables with a blank line and CSV with a blank line between blocks; JSON
// emits a single indented array of each table's Results, so multi-table
// output stays one parseable document.
func EmitAll(w io.Writer, tables []*Table, format string) error {
	if format == FormatJSON {
		all := make([]Results, len(tables))
		for i, t := range tables {
			if t == nil {
				return errors.New("report: nil table")
			}
			all[i] = t.Results()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(all)
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := Emit(w, t, format); err != nil {
			return err
		}
	}
	return nil
}

func csvLine(cells []string) string {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		parts[i] = c
	}
	return strings.Join(parts, ",") + "\n"
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Pct formats a percentage with two decimals.
func Pct(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) + "%" }

// F formats a float with the given precision.
func F(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// I formats an integer.
func I(v int) string { return strconv.Itoa(v) }

// U formats an unsigned counter.
func U(v uint64) string { return strconv.FormatUint(v, 10) }
