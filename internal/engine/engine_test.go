package engine

import (
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// tinyDB builds a small custom database with known contents for exact
// executor checks: values are deterministic functions the tests can
// recompute independently.
func tinyDB() *relation.Database {
	db := &relation.Database{
		Name:     "tiny",
		PageSize: 512,
		Relations: map[string]*relation.Relation{
			"t": {
				Name: "t", Rows: 1000, Seed: 0x7357,
				Columns: []relation.Column{
					{Name: "id", Kind: relation.KindSequential, Width: 8},
					{Name: "grp", Kind: relation.KindUniform, Cardinality: 4, Width: 4},
					{Name: "val", Kind: relation.KindUniform, Cardinality: 100, Width: 8},
					{Name: "cat", Kind: relation.KindUniform, Cardinality: 10, Width: 4},
				},
			},
			"u": {
				Name: "u", Rows: 200, Seed: 0xcafe,
				Columns: []relation.Column{
					{Name: "uid", Kind: relation.KindSequential, Width: 8},
					{Name: "tref", Kind: relation.KindForeign, Cardinality: 1000, Width: 8, Parent: "t"},
					{Name: "w", Kind: relation.KindUniform, Cardinality: 50, Width: 4},
				},
			},
		},
	}
	return db
}

func mustExec(t *testing.T, e *Engine, n Node) (*Result, int64) {
	t.Helper()
	res, cost, err := e.ExecuteCount(n)
	if err != nil {
		t.Fatal(err)
	}
	return res, cost
}

func TestScanFullTable(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, cost := mustExec(t, e, &Scan{Rel: "t"})
	if len(res.Rows) != 1000 {
		t.Fatalf("rows = %d, want 1000", len(res.Rows))
	}
	if cost != db.MustRelation("t").Pages(db.PageSize) {
		t.Fatalf("cost = %d, want full page count", cost)
	}
	if res.Schema.RowWidth() != 24 {
		t.Fatalf("row width = %d", res.Schema.RowWidth())
	}
}

func TestScanFilterMatchesManualCount(t *testing.T) {
	db := tinyDB()
	e := New(db)
	rel := db.MustRelation("t")
	grp := rel.MustColumnIndex("grp")
	want := 0
	for row := int64(0); row < rel.Rows; row++ {
		if rel.Value(row, grp) == 2 {
			want++
		}
	}
	res, _ := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "grp", Op: OpEQ, Lo: 2}},
		Cols:  []string{"id"},
	})
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestScanRangePredicate(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "val", Op: OpRange, Lo: 10, Hi: 19}},
		Cols:  []string{"val"},
	})
	for _, row := range res.Rows {
		if row[0] < 10 || row[0] > 19 {
			t.Fatalf("value %d outside range", row[0])
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("range should match something")
	}
}

func TestClusteredIndexScan(t *testing.T) {
	db := tinyDB()
	e := New(db)
	full, _ := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "id", Op: OpRange, Lo: 100, Hi: 299}},
		Cols:  []string{"id"},
	})
	indexed, cost := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "id", Op: OpRange, Lo: 100, Hi: 299}},
		Index: "id",
		Cols:  []string{"id"},
	})
	if len(indexed.Rows) != len(full.Rows) || len(indexed.Rows) != 200 {
		t.Fatalf("indexed rows = %d, full = %d, want 200", len(indexed.Rows), len(full.Rows))
	}
	rel := db.MustRelation("t")
	rpp := rel.RowsPerPage(db.PageSize)
	wantPages := 299/rpp - 100/rpp + 1
	if cost != wantPages {
		t.Fatalf("clustered range cost = %d, want %d", cost, wantPages)
	}
}

func TestClusteredIndexScanEQ(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, cost := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "id", Op: OpEQ, Lo: 42}},
		Index: "id",
	})
	if len(res.Rows) != 1 || res.Rows[0][0] != 42 {
		t.Fatalf("point lookup failed: %v", res.Rows)
	}
	if cost != 1 {
		t.Fatalf("point lookup cost = %d, want 1", cost)
	}
}

func TestClusteredIndexScanEmptyRange(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, cost := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "id", Op: OpRange, Lo: 5000, Hi: 6000}},
		Index: "id",
	})
	if len(res.Rows) != 0 || cost != 0 {
		t.Fatalf("empty range: rows=%d cost=%d", len(res.Rows), cost)
	}
}

func TestUnclusteredIndexScan(t *testing.T) {
	db := tinyDB()
	e := New(db)
	// Same result set as a full scan with the predicate, cheaper access.
	full, fullCost := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "val", Op: OpEQ, Lo: 7}},
		Cols:  []string{"id"},
	})
	idx, idxCost := mustExec(t, e, &Scan{
		Rel:   "t",
		Preds: []Pred{{Col: "val", Op: OpEQ, Lo: 7}},
		Index: "val",
		Cols:  []string{"id"},
	})
	if len(full.Rows) != len(idx.Rows) {
		t.Fatalf("index scan changed the result: %d vs %d", len(idx.Rows), len(full.Rows))
	}
	if idxCost > fullCost {
		t.Fatalf("index scan cost %d > full scan %d", idxCost, fullCost)
	}
	if idxCost <= 0 {
		t.Fatal("index scan with matches must read pages")
	}
}

func TestUnclusteredIndexResidualPredicates(t *testing.T) {
	db := tinyDB()
	e := New(db)
	// The index drives on val; grp is residual. Pages are charged for all
	// index matches, rows filtered afterward.
	plain, _ := mustExec(t, e, &Scan{
		Rel: "t",
		Preds: []Pred{
			{Col: "val", Op: OpEQ, Lo: 7},
			{Col: "grp", Op: OpEQ, Lo: 1},
		},
		Cols: []string{"id"},
	})
	idx, _ := mustExec(t, e, &Scan{
		Rel: "t",
		Preds: []Pred{
			{Col: "val", Op: OpEQ, Lo: 7},
			{Col: "grp", Op: OpEQ, Lo: 1},
		},
		Index: "val",
		Cols:  []string{"id"},
	})
	if len(plain.Rows) != len(idx.Rows) {
		t.Fatalf("residual filtering broken: %d vs %d", len(idx.Rows), len(plain.Rows))
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	db := tinyDB()
	e := New(db)
	join := &Join{
		Left:     &Scan{Rel: "u", Cols: []string{"uid", "tref"}},
		Right:    &Scan{Rel: "t", Cols: []string{"id", "grp"}},
		LeftCol:  "tref",
		RightCol: "id",
	}
	res, cost := mustExec(t, e, join)

	// Reference: nested loop over the generators.
	tt := db.MustRelation("t")
	uu := db.MustRelation("u")
	trefCol := uu.MustColumnIndex("tref")
	want := 0
	for urow := int64(0); urow < uu.Rows; urow++ {
		ref := uu.Value(urow, trefCol)
		if ref >= 0 && ref < tt.Rows {
			want++ // id is sequential: exactly one match
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), want)
	}
	wantCost := uu.Pages(db.PageSize) + tt.Pages(db.PageSize)
	if cost != wantCost {
		t.Fatalf("join cost = %d, want %d (sum of scans)", cost, wantCost)
	}
	// Verify the join columns really match on every output row.
	s := res.Schema
	li, ri := s.Index("tref"), s.Index("id")
	for _, row := range res.Rows {
		if row[li] != row[ri] {
			t.Fatal("join produced non-matching pair")
		}
	}
}

func TestAggregateScalar(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Aggregate{
		Input: &Scan{Rel: "t", Cols: []string{"val"}},
		Aggs: []AggSpec{
			{Kind: AggCount, As: "n"},
			{Kind: AggSum, Col: "val", As: "s"},
			{Kind: AggAvg, Col: "val", As: "a"},
			{Kind: AggMin, Col: "val", As: "lo"},
			{Kind: AggMax, Col: "val", As: "hi"},
		},
	})
	if len(res.Rows) != 1 {
		t.Fatalf("scalar aggregate rows = %d", len(res.Rows))
	}
	rel := db.MustRelation("t")
	vc := rel.MustColumnIndex("val")
	var sum, lo, hi int64
	lo, hi = math.MaxInt64, math.MinInt64
	for row := int64(0); row < rel.Rows; row++ {
		v := rel.Value(row, vc)
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	got := res.Rows[0]
	if got[0] != 1000 || got[1] != sum || got[2] != sum/1000 || got[3] != lo || got[4] != hi {
		t.Fatalf("aggregates = %v, want [1000 %d %d %d %d]", got, sum, sum/1000, lo, hi)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Aggregate{
		Input:   &Scan{Rel: "t", Cols: []string{"grp", "val"}},
		GroupBy: []string{"grp"},
		Aggs:    []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Col: "val", As: "s"}},
	})
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	// Output must be sorted by group key and counts must total the rows.
	var total int64
	for i, row := range res.Rows {
		if int64(i) != row[0] {
			t.Fatalf("groups not sorted: %v", res.Rows)
		}
		total += row[1]
	}
	if total != 1000 {
		t.Fatalf("group counts sum to %d", total)
	}
}

func TestAggregateEmptyScalar(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Aggregate{
		Input: &Scan{Rel: "t", Preds: []Pred{{Col: "val", Op: OpEQ, Lo: -5}}, Cols: []string{"val"}},
		Aggs:  []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Col: "val", As: "s"}},
	})
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 || res.Rows[0][1] != 0 {
		t.Fatalf("empty scalar aggregation = %v, want one zero row", res.Rows)
	}
}

func TestProjectDedup(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Project{
		Input: &Scan{Rel: "t", Cols: []string{"grp"}},
		Cols:  []string{"grp"},
		Dedup: true,
	})
	if len(res.Rows) != 4 {
		t.Fatalf("distinct grp = %d rows, want 4", len(res.Rows))
	}
}

func TestProjectRename(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Project{
		Input: &Scan{Rel: "t", Cols: []string{"grp", "val"}},
		Cols:  []string{"grp", "val"},
		As:    []string{"g2", ""},
	})
	if res.Schema[0].Name != "g2" || res.Schema[1].Name != "val" {
		t.Fatalf("renamed schema = %v", res.Schema)
	}
}

func TestSelfJoinViaRename(t *testing.T) {
	db := tinyDB()
	e := New(db)
	join := &Join{
		Left: &Scan{Rel: "t", Preds: []Pred{{Col: "id", Op: OpRange, Lo: 0, Hi: 49}}, Index: "id", Cols: []string{"id", "cat"}},
		Right: &Project{
			Input: &Scan{Rel: "t", Cols: []string{"cat"}},
			Cols:  []string{"cat"},
			As:    []string{"cat2"},
		},
		LeftCol:  "cat",
		RightCol: "cat2",
	}
	res, _ := mustExec(t, e, join)
	if len(res.Rows) == 0 {
		t.Fatal("self join returned nothing")
	}
	s := res.Schema
	a, b := s.Index("cat"), s.Index("cat2")
	for _, row := range res.Rows {
		if row[a] != row[b] {
			t.Fatal("self-join pair mismatch")
		}
	}
}

func TestSortAndLimit(t *testing.T) {
	db := tinyDB()
	e := New(db)
	res, _ := mustExec(t, e, &Sort{
		Input: &Scan{Rel: "t", Cols: []string{"val", "id"}},
		By:    []string{"val"},
		Desc:  true,
		Limit: 10,
	})
	if len(res.Rows) != 10 {
		t.Fatalf("limit produced %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0] > res.Rows[i-1][0] {
			t.Fatal("descending sort violated")
		}
	}
	asc, _ := mustExec(t, e, &Sort{
		Input: &Scan{Rel: "t", Cols: []string{"val"}},
		By:    []string{"val"},
	})
	for i := 1; i < len(asc.Rows); i++ {
		if asc.Rows[i][0] < asc.Rows[i-1][0] {
			t.Fatal("ascending sort violated")
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	db := tinyDB()
	nodes := []Node{
		&Scan{Rel: "missing"},
		&Scan{Rel: "t", Cols: []string{"missing"}},
		&Join{Left: &Scan{Rel: "t"}, Right: &Scan{Rel: "u"}, LeftCol: "missing", RightCol: "uid"},
		&Join{Left: &Scan{Rel: "t"}, Right: &Scan{Rel: "u"}, LeftCol: "id", RightCol: "missing"},
		&Join{Left: &Scan{Rel: "t", Cols: []string{"id"}}, Right: &Scan{Rel: "t", Cols: []string{"id"}}, LeftCol: "id", RightCol: "id"},
		&Aggregate{Input: &Scan{Rel: "t"}, GroupBy: []string{"missing"}},
		&Aggregate{Input: &Scan{Rel: "t"}, Aggs: []AggSpec{{Kind: AggSum, Col: "missing", As: "x"}}},
		&Aggregate{Input: &Scan{Rel: "t"}, Aggs: []AggSpec{{Kind: AggSum, Col: "val"}}},
		&Aggregate{Input: &Scan{Rel: "t"}, GroupBy: []string{"grp"}, Aggs: []AggSpec{{Kind: AggCount, As: "grp"}}},
		&Project{Input: &Scan{Rel: "t"}},
		&Project{Input: &Scan{Rel: "t"}, Cols: []string{"missing"}},
		&Project{Input: &Scan{Rel: "t"}, Cols: []string{"id"}, As: []string{"a", "b"}},
		&Sort{Input: &Scan{Rel: "t"}, By: []string{"missing"}},
		&Sort{Input: &Scan{Rel: "t"}, Limit: -1},
	}
	for i, n := range nodes {
		if _, err := n.Schema(db); err == nil {
			t.Errorf("node %d: expected schema error", i)
		}
	}
}

func TestBaseRelations(t *testing.T) {
	plan := &Aggregate{
		Input: &Join{
			Left:    &Scan{Rel: "u"},
			Right:   &Sort{Input: &Project{Input: &Scan{Rel: "t"}, Cols: []string{"id"}}, By: []string{"id"}},
			LeftCol: "tref", RightCol: "id",
		},
		Aggs: []AggSpec{{Kind: AggCount, As: "n"}},
	}
	rels := BaseRelations(plan)
	if len(rels) != 2 || rels[0] != "u" || rels[1] != "t" {
		t.Fatalf("base relations = %v", rels)
	}
}

func TestResultBytes(t *testing.T) {
	r := &Result{Schema: Schema{{Name: "a", Width: 8}, {Name: "b", Width: 4}}}
	if r.Bytes() != 12 {
		t.Fatalf("empty result bytes = %d, want one row width", r.Bytes())
	}
	r.Rows = [][]int64{{1, 2}, {3, 4}, {5, 6}}
	if r.Bytes() != 36 {
		t.Fatalf("bytes = %d, want 36", r.Bytes())
	}
}

func TestExecuteUnknownNode(t *testing.T) {
	e := New(tinyDB())
	if _, err := e.Execute(nil, &storage.CountingSink{}); err == nil {
		t.Fatal("nil node must error")
	}
	if _, err := e.Estimate(nil); err == nil {
		t.Fatal("nil node must error in estimate")
	}
	if _, err := e.EmitAccess(nil, 0, &storage.CountingSink{}); err == nil {
		t.Fatal("nil node must error in access")
	}
}

// ExecuteCount runs the plan and returns the result together with its cost
// in logical block reads.
func (e *Engine) ExecuteCount(n Node) (*Result, int64, error) {
	var c storage.CountingSink
	res, err := e.Execute(n, &c)
	return res, c.N, err
}
