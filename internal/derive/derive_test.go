package derive

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// descScan returns a detail-slice descriptor over the mini database.
func descScan(lo, hi int64) *engine.Descriptor {
	return &engine.Descriptor{
		Rel:   "fact",
		Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: lo, Hi: hi}},
		Cols:  []string{"day", "cat", "amt"},
	}
}

// newDerivedCache builds a single-threaded cache with a deriver installed.
func newDerivedCache(t *testing.T, d *Deriver, capacity int64) *core.Cache {
	t.Helper()
	c, err := core.New(core.Config{Capacity: capacity, K: 2, Policy: core.LNCRA, Deriver: d})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeriverIndexFollowsLifecycle(t *testing.T) {
	d := New()
	c := newDerivedCache(t, d, 1<<20)

	anc := descScan(0, 40)
	c.Reference(core.Request{QueryID: "anc", Time: 1, Size: 4096, Cost: 500,
		Relations: []string{"fact"}, Plan: anc})
	if got := d.candidates(); got != 1 {
		t.Fatalf("after admission: %d candidates, want 1", got)
	}

	// A plan-free admission is not indexed.
	c.Reference(core.Request{QueryID: "noplan", Time: 2, Size: 64, Cost: 500})
	if got := d.candidates(); got != 1 {
		t.Fatalf("after plan-free admission: %d candidates, want 1", got)
	}

	// Invalidation drops the candidate.
	c.Invalidate("fact")
	if got := d.candidates(); got != 0 {
		t.Fatalf("after invalidation: %d candidates, want 0", got)
	}
}

func TestDropRelations(t *testing.T) {
	d := New()
	c := newDerivedCache(t, d, 1<<20)
	c.Reference(core.Request{QueryID: "a", Time: 1, Size: 64, Cost: 100,
		Relations: []string{"fact"}, Plan: descScan(0, 40)})
	c.Reference(core.Request{QueryID: "b", Time: 2, Size: 64, Cost: 100,
		Relations: []string{"fact"}, Plan: descScan(0, 50)})
	if got := d.candidates(); got != 2 {
		t.Fatalf("candidates = %d, want 2", got)
	}
	d.DropRelations("other")
	if got := d.candidates(); got != 2 {
		t.Fatalf("dropping an unrelated relation removed candidates: %d", got)
	}
	d.DropRelations("fact")
	if got := d.candidates(); got != 0 {
		t.Fatalf("candidates after DropRelations = %d, want 0", got)
	}
	if _, ok := d.Derive(core.Request{QueryID: "c", Size: 32, Cost: 100, Plan: descScan(5, 10)}); ok {
		t.Fatal("derived from a dropped relation")
	}
}

func TestDeriveBookkeeping(t *testing.T) {
	d := New()
	c := newDerivedCache(t, d, 1<<20)

	c.Reference(core.Request{QueryID: "anc", Time: 1, Size: 8192, Cost: 500,
		Relations: []string{"fact"}, Plan: descScan(0, 40)})

	// A narrower slice derives: derivation cost = 2 pages of the 8 KiB
	// ancestor, remote cost 400.
	hit, _ := c.Reference(core.Request{QueryID: "child", Time: 2, Size: 1024, Cost: 400,
		Relations: []string{"fact"}, Plan: descScan(5, 20)})
	if !hit {
		t.Fatal("derivable reference returned hit=false")
	}
	st := c.Stats()
	if st.DerivedHits != 1 {
		t.Fatalf("DerivedHits = %d, want 1", st.DerivedHits)
	}
	if st.DeriveCost != 2 {
		t.Fatalf("DeriveCost = %g, want 2 (two pages of the ancestor)", st.DeriveCost)
	}
	if want := 400.0 - 2; st.CostSaved != want {
		t.Fatalf("CostSaved = %g, want %g (residual)", st.CostSaved, want)
	}
	if st.CostTotal != 900 {
		t.Fatalf("CostTotal = %g, want 900", st.CostTotal)
	}

	// The derived set was admitted at residual cost: a repeat of the same
	// query is now an exact hit saving the full remote cost.
	hit, _ = c.Reference(core.Request{QueryID: "child", Time: 3, Size: 1024, Cost: 400,
		Relations: []string{"fact"}, Plan: descScan(5, 20)})
	if !hit {
		t.Fatal("repeat of derived query should be an exact hit")
	}
	st = c.Stats()
	if st.Hits != 1 || st.DerivedHits != 1 {
		t.Fatalf("after repeat: Hits=%d DerivedHits=%d, want 1/1", st.Hits, st.DerivedHits)
	}
	if n := c.Resident(); n != 2 {
		t.Fatalf("resident entries = %d, want 2 (ancestor + derived set)", n)
	}
}

func TestDeriveDeclinesWhenNotProfitable(t *testing.T) {
	d := New()
	c := newDerivedCache(t, d, 1<<20)

	// A huge ancestor: re-scanning it costs more than remote execution.
	c.Reference(core.Request{QueryID: "anc", Time: 1, Size: 1 << 19, Cost: 500,
		Relations: []string{"fact"}, Plan: descScan(0, 40)})
	hit, _ := c.Reference(core.Request{QueryID: "child", Time: 2, Size: 64, Cost: 10,
		Relations: []string{"fact"}, Plan: descScan(5, 20)})
	if hit {
		t.Fatal("derivation costlier than remote execution must not hit")
	}
	if st := c.Stats(); st.DerivedHits != 0 {
		t.Fatalf("DerivedHits = %d, want 0", st.DerivedHits)
	}
}

func TestDeriveDeterministicTieBreak(t *testing.T) {
	d := New()
	c := newDerivedCache(t, d, 1<<20)

	// Two equally sized subsuming ancestors: selection must tie-break on
	// ascending ID, deterministically.
	c.Reference(core.Request{QueryID: "b-anc", Time: 1, Size: 4096, Cost: 500,
		Relations: []string{"fact"}, Plan: descScan(0, 50)})
	c.Reference(core.Request{QueryID: "a-anc", Time: 2, Size: 4096, Cost: 500,
		Relations: []string{"fact"}, Plan: descScan(0, 45)})

	req := core.Request{QueryID: "child", Size: 128, Cost: 400, Plan: descScan(5, 20)}
	for i := 0; i < 32; i++ {
		dv, ok := d.Derive(req)
		if !ok {
			t.Fatal("expected derivation")
		}
		if dv.AncestorID != "a-anc" {
			t.Fatalf("iteration %d picked %q, want deterministic \"a-anc\"", i, dv.AncestorID)
		}
	}
}

func TestDeriveMaterializesPayload(t *testing.T) {
	eng := engine.New(miniDB())
	d := New()
	c := newDerivedCache(t, d, 1<<20)

	anc := descScan(0, 40)
	ancRes := mustExec(t, eng, anc.Plan())
	c.Reference(core.Request{QueryID: "anc", Time: 1, Size: ancRes.Bytes(), Cost: 500,
		Relations: []string{"fact"}, Payload: ancRes, Plan: anc})

	q := descScan(5, 20)
	want := mustExec(t, eng, q.Plan())
	hit, payload := c.Reference(core.Request{QueryID: "child", Time: 2, Size: want.Bytes(), Cost: 400,
		Relations: []string{"fact"}, Plan: q})
	if !hit {
		t.Fatal("expected derived hit")
	}
	got, ok := payload.(*engine.Result)
	if !ok {
		t.Fatalf("payload is %T, want *engine.Result", payload)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("derived %d rows, remote %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// candidates returns the number of cached entries currently indexed.
func (d *Deriver) candidates() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, rel := range d.byRel {
		n += len(rel)
	}
	return n
}
