package metrics

import (
	"encoding/csv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("title", "col1", "longer column")
	tb.AddRow("a", "b")
	tb.AddRow("wide cell value", "x")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "title" {
		t.Fatalf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "col1") || !strings.Contains(lines[1], "longer column") {
		t.Fatalf("header wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator wrong: %q", lines[2])
	}
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns align: "b" must start at the same offset as "longer".
	if strings.Index(lines[3], "b") != strings.Index(lines[1], "longer") {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

func TestTableRowClamping(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1")           // short row padded
	tb.AddRow("1", "2", "3") // long row truncated
	if len(tb.Rows[0]) != 2 || len(tb.Rows[1]) != 2 {
		t.Fatal("rows must be clamped to the column count")
	}
	if tb.Rows[0][1] != "" || tb.Rows[1][1] != "2" {
		t.Fatal("clamping semantics wrong")
	}
}

func TestTableAddRowValues(t *testing.T) {
	tb := NewTable("", "n", "f")
	tb.AddRowValues(42, 1.5)
	if tb.Rows[0][0] != "42" || tb.Rows[0][1] != "1.5" {
		t.Fatalf("row = %v", tb.Rows[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("plain", `with "quotes", and comma`)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, `"with ""quotes"", and comma"`) {
		t.Fatalf("CSV escaping wrong: %q", out)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%s", err, out)
	}
	if len(rows) != 2 || rows[1][1] != `with "quotes", and comma` {
		t.Fatalf("CSV round trip = %q", rows)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(1, 10)
	s.Add(2, 20)
	if v, err := s.At(2); err != nil || v != 20 {
		t.Fatalf("At(2) = %g, %v", v, err)
	}
	if _, err := s.At(3); err == nil {
		t.Fatal("missing X must error")
	}
}

func TestSeriesTable(t *testing.T) {
	a := &Series{Name: "A"}
	b := &Series{Name: "B"}
	for _, x := range []float64{0.5, 1, 2} {
		a.Add(x, x*2)
		b.Add(x, x*3)
	}
	tb, err := SeriesTable("t", "x", "%.1f", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 || tb.Columns[1] != "A" || tb.Columns[2] != "B" {
		t.Fatalf("table = %+v", tb)
	}
	if tb.Rows[1][1] != "2.0" || tb.Rows[1][2] != "3.0" {
		t.Fatalf("row = %v", tb.Rows[1])
	}
}

func TestSeriesTableMismatch(t *testing.T) {
	a := &Series{Name: "A"}
	a.Add(1, 1)
	b := &Series{Name: "B"} // missing x=1
	if _, err := SeriesTable("t", "x", "%.1f", a, b); err == nil {
		t.Fatal("mismatched series must error")
	}
}

func TestSeriesTableEmpty(t *testing.T) {
	tb, err := SeriesTable("t", "x", "%.1f")
	if err != nil || len(tb.Columns) != 1 {
		t.Fatalf("empty series table: %v, %v", tb, err)
	}
}

func TestFormatters(t *testing.T) {
	if Ratio(0.8415) != "0.842" {
		t.Fatalf("Ratio = %q", Ratio(0.8415))
	}
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.123))
	}
	cases := map[int64]string{
		512:          "512 B",
		2048:         "2.0 KiB",
		16 << 20:     "16.0 MiB",
		3 << 30:      "3.0 GiB",
		1<<40 + 1e11: "1.1 TiB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}
