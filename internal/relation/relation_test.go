package relation

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTPCDSchemaValid(t *testing.T) {
	for _, sf := range []float64{0.001, 0.03, 1} {
		db := TPCD(sf, 0)
		if err := db.validate(); err != nil {
			t.Fatalf("SF %g: %v", sf, err)
		}
		if db.PageSize != DefaultPageSize {
			t.Fatalf("page size defaulted to %d", db.PageSize)
		}
		if len(db.Relations) != 8 {
			t.Fatalf("TPC-D has 8 relations, got %d", len(db.Relations))
		}
	}
}

func TestWarehouseSchemaValid(t *testing.T) {
	if err := Warehouse(0.05, 0).validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetQuerySchemaValid(t *testing.T) {
	for _, scale := range []float64{0.001, 0.5, 1} {
		db := SetQuery(scale, 0)
		if err := db.validate(); err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
	}
}

func TestTPCDSizes(t *testing.T) {
	// The paper's 30 MB database is SF 0.03; allow ±20 % for row-width
	// approximation.
	db := TPCD(0.03, 0)
	gb := float64(db.Bytes())
	if gb < 24e6 || gb > 36e6 {
		t.Fatalf("TPC-D SF 0.03 = %.1f MB, want ≈ 30 MB", gb/1e6)
	}
	// Relative relation sizes: lineitem dominates.
	li := db.MustRelation("lineitem").Bytes()
	if float64(li) < 0.5*gb {
		t.Fatalf("lineitem = %d bytes, should dominate the database", li)
	}
	// Row counts follow the spec ratios.
	if o, l := db.MustRelation("orders").Rows, db.MustRelation("lineitem").Rows; l != 4*o {
		t.Fatalf("lineitem/orders = %d/%d, want 4:1", l, o)
	}
}

func TestSetQuerySizes(t *testing.T) {
	db := SetQuery(0.5, 0)
	gb := float64(db.Bytes())
	if gb < 90e6 || gb > 110e6 {
		t.Fatalf("Set Query scale 0.5 = %.1f MB, want ≈ 100 MB", gb/1e6)
	}
	bench := db.MustRelation("bench")
	if bench.RowWidth() != 200 {
		t.Fatalf("BENCH row width = %d, want the benchmark's 200 bytes", bench.RowWidth())
	}
	// K-column cardinalities: absolute for small, scaled for large.
	k2 := bench.Columns[bench.MustColumnIndex("k2")]
	if k2.Cardinality != 2 {
		t.Fatalf("k2 cardinality = %d", k2.Cardinality)
	}
	k500k := bench.Columns[bench.MustColumnIndex("k500k")]
	if k500k.Cardinality != 250_000 {
		t.Fatalf("k500k cardinality at scale 0.5 = %d, want 250000", k500k.Cardinality)
	}
}

func TestValueDeterministic(t *testing.T) {
	db := TPCD(0.01, 0)
	li := db.MustRelation("lineitem")
	for row := int64(0); row < 100; row++ {
		for col := range li.Columns {
			if li.Value(row, col) != li.Value(row, col) {
				t.Fatal("value generation is not deterministic")
			}
		}
	}
	// Different seeds produce different data.
	other := *li
	other.Seed = li.Seed + 1
	same := 0
	for row := int64(0); row < 100; row++ {
		if li.Value(row, 4) == other.Value(row, 4) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("seed does not perturb generated values")
	}
}

func TestValueRanges(t *testing.T) {
	db := SetQuery(0.01, 0)
	bench := db.MustRelation("bench")
	for col := range bench.Columns {
		card := bench.Cardinality(col)
		for row := int64(0); row < 500; row++ {
			v := bench.Value(row, col)
			if v < 0 || v >= card {
				t.Fatalf("column %s: value %d outside [0, %d)", bench.Columns[col].Name, v, card)
			}
		}
	}
}

func TestSequentialColumns(t *testing.T) {
	db := TPCD(0.01, 0)
	ord := db.MustRelation("orders")
	ci := ord.MustColumnIndex("o_orderkey")
	for row := int64(0); row < 50; row++ {
		if ord.Value(row, ci) != row {
			t.Fatal("sequential column must equal the row index")
		}
	}
	if ord.Cardinality(ci) != ord.Rows {
		t.Fatal("sequential column cardinality must equal row count")
	}
}

func TestUniformDistribution(t *testing.T) {
	// A uniform column's low-cardinality values must each receive roughly
	// rows/card occurrences (loose 3-sigma-ish band).
	db := TPCD(0.01, 0)
	li := db.MustRelation("lineitem")
	ci := li.MustColumnIndex("l_returnflag") // cardinality 3
	counts := make([]int, 3)
	n := int64(6000)
	for row := int64(0); row < n; row++ {
		counts[li.Value(row, ci)]++
	}
	expect := float64(n) / 3
	for v, c := range counts {
		if math.Abs(float64(c)-expect) > 4*math.Sqrt(expect) {
			t.Fatalf("value %d occurs %d times, expected ≈ %.0f", v, c, expect)
		}
	}
}

func TestRowMaterialization(t *testing.T) {
	db := TPCD(0.01, 0)
	nat := db.MustRelation("nation")
	row := nat.Row(3, nil)
	if len(row) != len(nat.Columns) {
		t.Fatalf("row has %d values, want %d", len(row), len(nat.Columns))
	}
	for i := range row {
		if row[i] != nat.Value(3, i) {
			t.Fatal("Row and Value disagree")
		}
	}
	// Reuse of the destination slice.
	row2 := nat.Row(4, row)
	if &row2[0] != &row[0] {
		t.Fatal("Row must reuse the provided buffer")
	}
}

func TestPagesMath(t *testing.T) {
	db := TPCD(0.01, 0)
	for _, name := range db.RelationNames() {
		r := db.MustRelation(name)
		rpp := r.RowsPerPage(db.PageSize)
		pages := r.Pages(db.PageSize)
		if rpp < 1 || pages < 1 {
			t.Fatalf("%s: rpp=%d pages=%d", name, rpp, pages)
		}
		if pages*rpp < r.Rows {
			t.Fatalf("%s: %d pages × %d rows/page < %d rows", name, pages, rpp, r.Rows)
		}
		if (pages-1)*rpp >= r.Rows {
			t.Fatalf("%s: too many pages", name)
		}
	}
	if db.Pages() <= 0 {
		t.Fatal("database page count must be positive")
	}
}

func TestColumnIndexErrors(t *testing.T) {
	db := TPCD(0.01, 0)
	li := db.MustRelation("lineitem")
	if _, err := li.ColumnIndex("no_such_column"); err == nil {
		t.Fatal("unknown column must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumnIndex must panic on unknown columns")
		}
	}()
	li.MustColumnIndex("no_such_column")
}

func TestRelationLookupErrors(t *testing.T) {
	db := TPCD(0.01, 0)
	if _, err := db.Relation("no_such_relation"); err == nil {
		t.Fatal("unknown relation must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRelation must panic on unknown relations")
		}
	}()
	db.MustRelation("no_such_relation")
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Database { return TPCD(0.01, 0) }

	db := mk()
	db.Relations["orders"].Rows = 0
	if err := db.validate(); err == nil {
		t.Error("zero rows must fail")
	}

	db = mk()
	db.Relations["orders"].Columns[0].Width = 0
	if err := db.validate(); err == nil {
		t.Error("zero width must fail")
	}

	db = mk()
	db.Relations["orders"].Columns = append(db.Relations["orders"].Columns,
		Column{Name: "o_orderkey", Kind: KindUniform, Cardinality: 2, Width: 4})
	if err := db.validate(); err == nil {
		t.Error("duplicate column must fail")
	}

	db = mk()
	db.Relations["orders"].Columns[1].Parent = "nonexistent"
	if err := db.validate(); err == nil {
		t.Error("dangling foreign key must fail")
	}

	db = mk()
	db.Relations["orders"].Columns[1].Cardinality = 1
	if err := db.validate(); err == nil {
		t.Error("foreign key cardinality mismatch must fail")
	}

	db = mk()
	db.PageSize = 16
	if err := db.validate(); err == nil {
		t.Error("tiny page size must fail")
	}

	db = mk()
	db.Relations["misnamed"] = db.Relations["orders"]
	delete(db.Relations, "orders")
	if err := db.validate(); err == nil {
		t.Error("key/name mismatch must fail")
	}
}

func TestScaleClamping(t *testing.T) {
	db := TPCD(1e-9, 0) // everything clamps to ≥ 1 row
	if err := db.validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range db.RelationNames() {
		if db.MustRelation(n).Rows < 1 {
			t.Fatalf("%s has %d rows", n, db.MustRelation(n).Rows)
		}
	}
}

func TestValueBoundsQuick(t *testing.T) {
	db := SetQuery(0.05, 0)
	bench := db.MustRelation("bench")
	f := func(row uint32, col uint8) bool {
		c := int(col) % len(bench.Columns)
		r := int64(row) % bench.Rows
		v := bench.Value(r, c)
		return v >= 0 && v < bench.Cardinality(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Row materializes the tuple at the given row index into dst, growing it as
// needed, and returns it. Row indices run from 0 to Rows−1.
func (r *Relation) Row(row int64, dst []int64) []int64 {
	if cap(dst) < len(r.Columns) {
		dst = make([]int64, len(r.Columns))
	}
	dst = dst[:len(r.Columns)]
	for i := range r.Columns {
		dst[i] = r.Value(row, i)
	}
	return dst
}

// Pages returns the total number of data pages in the database.
func (d *Database) Pages() int64 {
	var total int64
	for _, r := range d.Relations {
		total += r.Pages(d.PageSize)
	}
	return total
}

// validate checks structural consistency of the database metadata.
func (d *Database) validate() error {
	if d.PageSize < 512 {
		return fmt.Errorf("database %s: page size %d too small", d.Name, d.PageSize)
	}
	for name, r := range d.Relations {
		if name != r.Name {
			return fmt.Errorf("database %s: relation keyed %q but named %q", d.Name, name, r.Name)
		}
		if r.Rows <= 0 {
			return fmt.Errorf("relation %s: non-positive row count %d", r.Name, r.Rows)
		}
		if len(r.Columns) == 0 {
			return fmt.Errorf("relation %s: no columns", r.Name)
		}
		seen := make(map[string]bool, len(r.Columns))
		for _, c := range r.Columns {
			if c.Name == "" {
				return fmt.Errorf("relation %s: column with empty name", r.Name)
			}
			if seen[c.Name] {
				return fmt.Errorf("relation %s: duplicate column %q", r.Name, c.Name)
			}
			seen[c.Name] = true
			if c.Width <= 0 {
				return fmt.Errorf("relation %s: column %s has non-positive width", r.Name, c.Name)
			}
			if c.Kind != KindSequential && c.Cardinality <= 0 {
				return fmt.Errorf("relation %s: column %s has non-positive cardinality", r.Name, c.Name)
			}
			if c.Kind == KindForeign {
				parent, ok := d.Relations[c.Parent]
				if !ok {
					return fmt.Errorf("relation %s: column %s references unknown relation %q", r.Name, c.Name, c.Parent)
				}
				if c.Cardinality != parent.Rows {
					return fmt.Errorf("relation %s: column %s cardinality %d != parent %s rows %d",
						r.Name, c.Name, c.Cardinality, c.Parent, parent.Rows)
				}
			}
		}
	}
	return nil
}
