package derive

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/storage"
)

// The derivation equivalence corpus: for every (ancestor, query) pair the
// containment rules accept, executing the query remotely and rewriting it
// over the ancestor's materialized result must produce identical rows in
// identical order. The grid test walks the rule grid deterministically;
// the fuzz target searches the pair space randomly. CI runs both in short
// mode as the derivation smoke.

// miniDB is a one-relation database small enough to execute exhaustively.
func miniDB() *relation.Database {
	db := &relation.Database{
		Name:     "mini",
		PageSize: 512,
		Relations: map[string]*relation.Relation{
			"fact": {
				Name: "fact", Rows: 500, Seed: 0xfeedbeef,
				Columns: []relation.Column{
					{Name: "id", Kind: relation.KindSequential, Width: 8},
					{Name: "day", Kind: relation.KindUniform, Cardinality: 60, Width: 4},
					{Name: "cat", Kind: relation.KindUniform, Cardinality: 5, Width: 4},
					{Name: "flag", Kind: relation.KindUniform, Cardinality: 2, Width: 1},
					{Name: "amt", Kind: relation.KindUniform, Cardinality: 97, Width: 8},
				},
			},
		},
	}
	return db
}

// mustExec executes a plan, discarding page references.
func mustExec(t testing.TB, eng *engine.Engine, n engine.Node) *engine.Result {
	t.Helper()
	var sink storage.CountingSink
	res, err := eng.Execute(n, &sink)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res
}

// assertEquivalent derives q from anc and compares against remote
// execution, row for row.
func assertEquivalent(t *testing.T, eng *engine.Engine, anc, q *engine.Descriptor) {
	t.Helper()
	if !engine.NewMatcher(q).Subsumes(anc) {
		t.Fatalf("Subsumes(%+v, %+v) = false, want true", anc, q)
	}
	ancRes := mustExec(t, eng, anc.Plan())
	want := mustExec(t, eng, q.Plan())
	got, err := engine.Rewrite(anc, q, ancRes)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("derived %d rows, remote %d rows", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d: derived width %d, remote width %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d col %d: derived %d, remote %d\nderived: %v\nremote:  %v",
					i, j, got.Rows[i][j], want.Rows[i][j], got.Rows[i], want.Rows[i])
			}
		}
	}
	if got.Bytes() != want.Bytes() {
		t.Fatalf("derived size %d, remote size %d", got.Bytes(), want.Bytes())
	}
}

// TestRewriteEquivalenceGrid walks the rewrite rule grid: R1 re-filters
// with and without residuals, R2 roll-ups for every aggregate kind
// (including AVG from SUM+COUNT), residual slices on group columns,
// scalar roll-ups, R3 re-aggregation, and empty results.
func TestRewriteEquivalenceGrid(t *testing.T) {
	eng := engine.New(miniDB())

	detail := &engine.Descriptor{
		Rel:   "fact",
		Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
		Cols:  []string{"day", "cat", "flag", "amt"},
	}
	cube := &engine.Descriptor{
		Rel:     "fact",
		Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
		GroupBy: []string{"day", "cat", "flag"},
		Aggs: []engine.AggSpec{
			{Kind: engine.AggCount, As: "n"},
			{Kind: engine.AggSum, Col: "amt", As: "s"},
			{Kind: engine.AggMin, Col: "amt", As: "mn"},
			{Kind: engine.AggMax, Col: "amt", As: "mx"},
		},
	}

	cases := []struct {
		name string
		anc  *engine.Descriptor
		q    *engine.Descriptor
	}{
		{"refilter-project", detail, &engine.Descriptor{
			Rel:   "fact",
			Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 15, Hi: 30}, {Col: "cat", Op: engine.OpEQ, Lo: 2}},
			Cols:  []string{"day", "amt"},
		}},
		{"refilter-identity-preds", detail, &engine.Descriptor{
			Rel:   "fact",
			Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
			Cols:  []string{"amt", "day"},
		}},
		{"refilter-empty", detail, &engine.Descriptor{
			Rel:   "fact",
			Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 12, Hi: 13}, {Col: "cat", Op: engine.OpEQ, Lo: 99}},
			Cols:  []string{"day"},
		}},
		{"rollup-count-sum", cube, &engine.Descriptor{
			Rel:     "fact",
			Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
			GroupBy: []string{"cat"},
			Aggs: []engine.AggSpec{
				{Kind: engine.AggCount, As: "cnt"},
				{Kind: engine.AggSum, Col: "amt", As: "total"},
			},
		}},
		{"rollup-min-max", cube, &engine.Descriptor{
			Rel:     "fact",
			Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
			GroupBy: []string{"flag", "cat"},
			Aggs: []engine.AggSpec{
				{Kind: engine.AggMin, Col: "amt", As: "lo"},
				{Kind: engine.AggMax, Col: "amt", As: "hi"},
			},
		}},
		{"rollup-avg", cube, &engine.Descriptor{
			Rel:     "fact",
			Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
			GroupBy: []string{"cat"},
			Aggs:    []engine.AggSpec{{Kind: engine.AggAvg, Col: "amt", As: "avg_amt"}},
		}},
		{"rollup-residual-slice", cube, &engine.Descriptor{
			Rel:     "fact",
			Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 12, Hi: 25}, {Col: "flag", Op: engine.OpEQ, Lo: 1}},
			GroupBy: []string{"cat"},
			Aggs:    []engine.AggSpec{{Kind: engine.AggSum, Col: "amt", As: "total"}},
		}},
		{"rollup-scalar", cube, &engine.Descriptor{
			Rel:   "fact",
			Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}, {Col: "cat", Op: engine.OpEQ, Lo: 3}},
			Aggs: []engine.AggSpec{
				{Kind: engine.AggAvg, Col: "amt", As: "a"},
				{Kind: engine.AggCount, As: "n"},
				{Kind: engine.AggSum, Col: "amt", As: "s"},
			},
		}},
		{"rollup-scalar-empty", cube, &engine.Descriptor{
			Rel:   "fact",
			Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 12, Hi: 12}, {Col: "cat", Op: engine.OpEQ, Lo: 99}},
			Aggs: []engine.AggSpec{
				{Kind: engine.AggCount, As: "n"},
				{Kind: engine.AggMin, Col: "amt", As: "mn"},
				{Kind: engine.AggAvg, Col: "amt", As: "a"},
			},
		}},
		{"aggregate-over-detail", detail, &engine.Descriptor{
			Rel:     "fact",
			Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 12, Hi: 20}},
			GroupBy: []string{"cat"},
			Aggs: []engine.AggSpec{
				{Kind: engine.AggCount, As: "n"},
				{Kind: engine.AggSum, Col: "amt", As: "s"},
				{Kind: engine.AggAvg, Col: "amt", As: "a"},
				{Kind: engine.AggMin, Col: "amt", As: "mn"},
				{Kind: engine.AggMax, Col: "amt", As: "mx"},
			},
		}},
		{"aggregate-over-detail-scalar", detail, &engine.Descriptor{
			Rel:   "fact",
			Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}, {Col: "flag", Op: engine.OpEQ, Lo: 0}},
			Aggs:  []engine.AggSpec{{Kind: engine.AggSum, Col: "amt", As: "s"}},
		}},
		{"grouped-projection", cube, &engine.Descriptor{
			Rel:     "fact",
			Preds:   []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 10, Hi: 40}},
			GroupBy: []string{"cat", "flag"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertEquivalent(t, eng, tc.anc, tc.q)
		})
	}
}

// randomPair draws a random (ancestor, query) pair: the ancestor is a
// random detail slice or cube over "fact", the query a random narrowing
// of it. Construction aims for subsumable pairs but does not guarantee
// them; the fuzz body only checks equivalence when Subsumes accepts.
func randomPair(rng *rand.Rand) (anc, q *engine.Descriptor) {
	cols := []string{"day", "cat", "flag", "amt"}
	aggCols := []string{"amt", "day", "cat"}

	lo := rng.Int63n(50)
	hi := lo + rng.Int63n(60-lo)
	ancPreds := []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: lo, Hi: hi}}

	// Query predicates: narrow the day window, maybe slice another column.
	qlo := lo + rng.Int63n(hi-lo+1)
	qhi := qlo + rng.Int63n(hi-qlo+1)
	qPreds := []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: qlo, Hi: qhi}}
	extra := ""
	if rng.Intn(2) == 0 {
		extra = []string{"cat", "flag"}[rng.Intn(2)]
		qPreds = append(qPreds, engine.Pred{Col: extra, Op: engine.OpEQ, Lo: rng.Int63n(5)})
	}

	if rng.Intn(2) == 0 {
		// Detail ancestor; query is a scan or an aggregate over it.
		anc = &engine.Descriptor{Rel: "fact", Preds: ancPreds, Cols: cols}
		if rng.Intn(2) == 0 {
			out := []string{cols[rng.Intn(len(cols))], cols[rng.Intn(len(cols))]}
			q = &engine.Descriptor{Rel: "fact", Preds: qPreds, Cols: out}
		} else {
			q = &engine.Descriptor{Rel: "fact", Preds: qPreds,
				GroupBy: []string{[]string{"cat", "flag"}[rng.Intn(2)]},
				Aggs:    randomAggs(rng, aggCols)}
		}
		return anc, q
	}

	// Cube ancestor; query rolls it up.
	anc = &engine.Descriptor{
		Rel: "fact", Preds: ancPreds,
		GroupBy: []string{"day", "cat", "flag"},
		Aggs: []engine.AggSpec{
			{Kind: engine.AggCount, As: "n"},
			{Kind: engine.AggSum, Col: "amt", As: "s"},
			{Kind: engine.AggMin, Col: "amt", As: "mn"},
			{Kind: engine.AggMax, Col: "amt", As: "mx"},
		},
	}
	var group []string
	for _, g := range []string{"day", "cat", "flag"} {
		if rng.Intn(2) == 0 {
			group = append(group, g)
		}
	}
	q = &engine.Descriptor{Rel: "fact", Preds: qPreds, GroupBy: group, Aggs: randomCubeAggs(rng)}
	return anc, q
}

// randomAggs draws 1..3 aggregates over the given columns (R3 can
// aggregate anything the detail set retains).
func randomAggs(rng *rand.Rand, cols []string) []engine.AggSpec {
	kinds := []engine.AggKind{engine.AggCount, engine.AggSum, engine.AggAvg, engine.AggMin, engine.AggMax}
	n := 1 + rng.Intn(3)
	out := make([]engine.AggSpec, 0, n)
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		sp := engine.AggSpec{Kind: k, As: []string{"a0", "a1", "a2"}[i]}
		if k != engine.AggCount {
			sp.Col = cols[rng.Intn(len(cols))]
		}
		out = append(out, sp)
	}
	return out
}

// randomCubeAggs draws aggregates derivable from the cube's partials.
func randomCubeAggs(rng *rand.Rand) []engine.AggSpec {
	kinds := []engine.AggKind{engine.AggCount, engine.AggSum, engine.AggAvg, engine.AggMin, engine.AggMax}
	n := 1 + rng.Intn(3)
	out := make([]engine.AggSpec, 0, n)
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		sp := engine.AggSpec{Kind: k, As: []string{"a0", "a1", "a2"}[i]}
		if k != engine.AggCount {
			sp.Col = "amt"
		}
		out = append(out, sp)
	}
	return out
}

// FuzzRewriteEquivalence fuzzes the equivalence property: every pair the
// containment rules accept must rewrite bit-identically to remote
// execution. The seed corpus covers the rule grid; `go test` replays it
// as the CI smoke, `go test -fuzz` explores further.
func FuzzRewriteEquivalence(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	eng := engine.New(miniDB())
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			anc, q := randomPair(rng)
			if !engine.NewMatcher(q).Subsumes(anc) {
				continue
			}
			assertEquivalent(t, eng, anc, q)
		}
	})
}
