// Package metrics provides the small reporting toolkit the experiment
// harness prints paper-style tables and curve series with.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a rectangular, left-aligned text table with a title.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowValues appends a row of arbitrary values formatted with %v.
func (t *Table) AddRowValues(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = fmt.Sprint(c)
	}
	t.AddRow(s...)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// CSV writes the table as RFC 4180 CSV (title omitted): a cell holding a
// comma, a quote or a line break is quoted, its quotes doubled.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// Point is one (x, y) sample of a curve.
type Point struct {
	X, Y float64
}

// Series is a named curve, e.g. one policy's CSR over cache sizes.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{x, y})
}

// At returns the Y value at the given X, or an error when X is absent.
func (s *Series) At(x float64) (float64, error) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, nil
		}
	}
	return 0, fmt.Errorf("metrics: series %q has no point at x=%g", s.Name, x)
}

// SeriesTable renders several series sharing an X axis as a table.
func SeriesTable(title, xLabel string, format string, series ...*Series) (*Table, error) {
	if len(series) == 0 {
		return NewTable(title, xLabel), nil
	}
	cols := []string{xLabel}
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	t := NewTable(title, cols...)
	base := series[0]
	for _, p := range base.Points {
		row := []string{strconv.FormatFloat(p.X, 'g', -1, 64)}
		for _, s := range series {
			y, err := s.At(p.X)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf(format, y))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Ratio formats v as a ratio with three decimals ("0.842").
func Ratio(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats v (a fraction) as a percentage with one decimal ("84.2%").
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Bytes formats a byte count in binary units.
func Bytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
