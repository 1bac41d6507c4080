package engine

import "testing"

// desc helpers for the containment tests.
func scanDesc(rel string, preds []Pred, cols ...string) *Descriptor {
	return &Descriptor{Rel: rel, Preds: preds, Cols: cols}
}

func dayRange(lo, hi int64) Pred {
	return Pred{Col: "day", Op: OpRange, Lo: lo, Hi: hi}
}

// TestSubsumesNegatives pins every rejection rule: containment must fail
// closed, because a false positive would serve wrong rows.
func TestSubsumesNegatives(t *testing.T) {
	detail := scanDesc("fact", []Pred{dayRange(10, 40)}, "day", "cat", "amt")
	cube := &Descriptor{
		Rel:     "fact",
		Preds:   []Pred{dayRange(10, 40)},
		GroupBy: []string{"day", "cat"},
		Aggs:    []AggSpec{{Kind: AggSum, Col: "amt", As: "s"}},
	}
	cases := []struct {
		name string
		anc  *Descriptor
		q    *Descriptor
	}{
		{"different-relation", detail, scanDesc("other", []Pred{dayRange(12, 20)}, "day")},
		{"wider-predicate", detail, scanDesc("fact", []Pred{dayRange(5, 20)}, "day")},
		{"missing-predicate-column", detail, scanDesc("fact", nil, "day")},
		{"residual-column-not-projected", detail, scanDesc("fact",
			[]Pred{dayRange(12, 20), {Col: "flag", Op: OpEQ, Lo: 1}}, "day")},
		{"projection-not-available", detail, scanDesc("fact", []Pred{dayRange(12, 20)}, "flag")},
		{"implicit-all-columns-query", detail, scanDesc("fact", []Pred{dayRange(12, 20)})},
		{"implicit-all-columns-ancestor", scanDesc("fact", []Pred{dayRange(10, 40)}),
			scanDesc("fact", []Pred{dayRange(12, 20)}, "day")},
		{"scan-from-aggregate", cube, scanDesc("fact", []Pred{dayRange(10, 40)}, "day", "cat")},
		{"groupby-not-subset", cube, &Descriptor{
			Rel: "fact", Preds: []Pred{dayRange(10, 40)},
			GroupBy: []string{"flag"},
			Aggs:    []AggSpec{{Kind: AggSum, Col: "amt", As: "s"}},
		}},
		{"aggregate-not-derivable", cube, &Descriptor{
			Rel: "fact", Preds: []Pred{dayRange(10, 40)},
			GroupBy: []string{"cat"},
			Aggs:    []AggSpec{{Kind: AggMin, Col: "amt", As: "mn"}}, // cube has no MIN partial
		}},
		{"avg-needs-count", cube, &Descriptor{
			Rel: "fact", Preds: []Pred{dayRange(10, 40)},
			GroupBy: []string{"cat"},
			Aggs:    []AggSpec{{Kind: AggAvg, Col: "amt", As: "a"}}, // cube has no COUNT partial
		}},
		{"residual-on-aggregated-column", cube, &Descriptor{
			Rel: "fact", Preds: []Pred{dayRange(10, 40), {Col: "amt", Op: OpEQ, Lo: 5}},
			GroupBy: []string{"cat"},
			Aggs:    []AggSpec{{Kind: AggSum, Col: "amt", As: "s"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if NewMatcher(tc.q).Subsumes(tc.anc) {
				t.Fatalf("Subsumes accepted an underivable pair:\nanc %+v\nq   %+v", tc.anc, tc.q)
			}
			if _, err := Rewrite(tc.anc, tc.q, &Result{}); err == nil {
				t.Fatal("Rewrite must refuse an underivable pair")
			}
		})
	}
}

// TestDescribePlanRoundTrip checks Describe captures the derivable shapes
// and that the descriptor's Plan rebuilds an equivalent tree.
func TestDescribePlanRoundTrip(t *testing.T) {
	scan := &Scan{Rel: "fact", Preds: []Pred{dayRange(1, 5)}, Index: "day", Cols: []string{"day", "amt"}}
	agg := &Aggregate{Input: scan, GroupBy: []string{"day"},
		Aggs: []AggSpec{{Kind: AggSum, Col: "amt", As: "s"}}}

	d, ok := Describe(scan)
	if !ok || d.IsAggregate() || d.Rel != "fact" || len(d.Cols) != 2 {
		t.Fatalf("Describe(scan) = %+v, %v", d, ok)
	}
	if _, ok := d.Plan().(*Scan); !ok {
		t.Fatalf("scan descriptor rebuilt as %T", d.Plan())
	}

	d, ok = Describe(agg)
	if !ok || !d.IsAggregate() || len(d.GroupBy) != 1 || len(d.Aggs) != 1 {
		t.Fatalf("Describe(agg) = %+v, %v", d, ok)
	}
	a, ok := d.Plan().(*Aggregate)
	if !ok {
		t.Fatalf("aggregate descriptor rebuilt as %T", d.Plan())
	}
	if s, ok := a.Input.(*Scan); !ok || len(s.Cols) != 2 {
		t.Fatalf("rebuilt aggregate input = %+v", a.Input)
	}

	// Underivable shapes: joins, renames, dedup.
	if _, ok := Describe(&Join{Left: scan, Right: scan, LeftCol: "day", RightCol: "day"}); ok {
		t.Fatal("Describe accepted a join")
	}
	if _, ok := Describe(&Project{Input: scan, Cols: []string{"day"}, As: []string{"d"}}); ok {
		t.Fatal("Describe accepted a renaming projection")
	}
	if _, ok := Describe(&Project{Input: scan, Cols: []string{"day"}, Dedup: true}); ok {
		t.Fatal("Describe accepted a dedup projection")
	}
	if d, ok := Describe(&Project{Input: scan, Cols: []string{"day"}}); !ok || len(d.Cols) != 1 {
		t.Fatalf("Describe(plain project over scan) = %+v, %v", d, ok)
	}
}

func TestDeriveCost(t *testing.T) {
	if got := DeriveCost(0); got != 1 {
		t.Fatalf("DeriveCost(0) = %g, want 1", got)
	}
	if got := DeriveCost(4096); got != 1 {
		t.Fatalf("DeriveCost(one page) = %g, want 1", got)
	}
	if got := DeriveCost(4097); got != 2 {
		t.Fatalf("DeriveCost(one page + 1) = %g, want 2", got)
	}
	if got := DeriveCost(1 << 20); got != 256 {
		t.Fatalf("DeriveCost(1MiB, default page) = %g, want 256", got)
	}
}
