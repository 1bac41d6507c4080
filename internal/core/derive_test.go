package core

import "testing"

// stubDeriver derives any request whose Plan is the string "derivable",
// at a fixed derivation cost, so the accounting can be asserted without
// the real matcher.
type stubDeriver struct {
	cost     float64
	ancestor string
	calls    int
}

func (s *stubDeriver) Derive(req Request) (Derivation, bool) {
	s.calls++
	if p, ok := req.Plan.(string); !ok || p != "derivable" {
		return Derivation{}, false
	}
	return Derivation{Cost: s.cost, AncestorID: s.ancestor}, true
}

// deriveEventTally counts events by kind, separating derived-flagged admission
// bookkeeping from reference outcomes.
type deriveEventTally struct {
	byKind  map[EventKind]int64
	derived int64
}

func (t *deriveEventTally) Emit(ev Event) {
	if ev.Derived {
		t.derived++
		return
	}
	t.byKind[ev.Kind]++
}

func TestDerivedHitAccounting(t *testing.T) {
	sd := &stubDeriver{cost: 10, ancestor: "anc"}
	tally := &deriveEventTally{byKind: make(map[EventKind]int64)}
	c, err := New(Config{Capacity: 1 << 20, K: 2, Policy: LNCRA, Deriver: sd, Sink: tally})
	if err != nil {
		t.Fatal(err)
	}

	// Admit the ancestor (underivable plan), then derive a child from it.
	c.Reference(Request{QueryID: "anc", Time: 1, Size: 1024, Cost: 500, Plan: "opaque"})
	hit, _ := c.Reference(Request{QueryID: "child", Time: 2, Size: 256, Cost: 100, Plan: "derivable"})
	if !hit {
		t.Fatal("derived reference returned hit=false")
	}

	st := c.Stats()
	if st.References != 2 || st.Hits != 0 || st.DerivedHits != 1 {
		t.Fatalf("stats = refs %d hits %d derived %d, want 2/0/1", st.References, st.Hits, st.DerivedHits)
	}
	if st.CostTotal != 600 || st.CostSaved != 90 || st.DeriveCost != 10 {
		t.Fatalf("cost accounting = total %g saved %g derive %g, want 600/90/10", st.CostTotal, st.CostSaved, st.DeriveCost)
	}
	if hr := st.HitRatio(); hr != 0.5 {
		t.Fatalf("HitRatio = %g, want 0.5 (derived hits count)", hr)
	}

	// Event partition: one HitDerived, one MissAdmitted for the ancestor;
	// the derived set's admission rode the Derived flag.
	if tally.byKind[EventHitDerived] != 1 {
		t.Fatalf("HitDerived events = %d, want 1", tally.byKind[EventHitDerived])
	}
	if tally.byKind[EventMissAdmitted] != 1 {
		t.Fatalf("MissAdmitted events = %d, want 1 (ancestor only)", tally.byKind[EventMissAdmitted])
	}
	if tally.derived != 1 {
		t.Fatalf("derived-flagged admission events = %d, want 1", tally.derived)
	}
	refs := tally.byKind[EventHit] + tally.byKind[EventHitDerived] +
		tally.byKind[EventMissAdmitted] + tally.byKind[EventMissRejected] + tally.byKind[EventExternalMiss]
	if refs != st.References {
		t.Fatalf("reference-outcome events sum to %d, Stats.References = %d", refs, st.References)
	}

	// The derived set was admitted at residual cost 90.
	e, ok := c.Lookup("child")
	if !ok {
		t.Fatal("derived set not resident")
	}
	if e.Cost != 90 {
		t.Fatalf("derived entry cost = %g, want residual 90", e.Cost)
	}

	// The ancestor's reference window was credited with the derivation.
	anc, _ := c.Lookup("anc")
	if anc.TotalRefs() != 2 {
		t.Fatalf("ancestor TotalRefs = %d, want 2 (admission + derivation credit)", anc.TotalRefs())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSkippedWithPayloadOrZeroCost(t *testing.T) {
	sd := &stubDeriver{cost: 1, ancestor: "anc"}
	c, err := New(Config{Capacity: 1 << 20, K: 2, Policy: LNCRA, Deriver: sd})
	if err != nil {
		t.Fatal(err)
	}
	// A request already carrying its payload has nothing to save.
	c.Reference(Request{QueryID: "q1", Time: 1, Size: 64, Cost: 100, Plan: "derivable", Payload: "rows"})
	// A request without a cost basis cannot be compared.
	c.Reference(Request{QueryID: "q2", Time: 2, Size: 64, Plan: "derivable"})
	if sd.calls != 0 {
		t.Fatalf("deriver consulted %d times, want 0", sd.calls)
	}
	if st := c.Stats(); st.DerivedHits != 0 {
		t.Fatalf("DerivedHits = %d, want 0", st.DerivedHits)
	}
}

func TestReferenceDerivedOnResidentEntryChargesHit(t *testing.T) {
	sd := &stubDeriver{cost: 3, ancestor: "anc"}
	c, err := New(Config{Capacity: 1 << 20, K: 2, Policy: LNCRA, Deriver: sd})
	if err != nil {
		t.Fatal(err)
	}
	// A plan-carrying reference to a resident set is an exact hit: the
	// derivation stage runs only on a miss, so the deriver is never asked
	// and the insert machinery never re-runs on the resident entry (which
	// would double-charge capacity and the evictor).
	c.Reference(Request{QueryID: "q", Time: 1, Size: 512, Cost: 100, Payload: "rows", Plan: "derivable"})
	usedBefore := c.UsedBytes()

	hit, p := c.Reference(Request{QueryID: "q", Time: 2, Size: 512, Cost: 100, Plan: "derivable"})
	if !hit || p != "rows" {
		t.Fatalf("hit = %v payload = %v, want the resident payload", hit, p)
	}
	if sd.calls != 0 {
		t.Fatalf("deriver consulted %d times, want 0", sd.calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.DerivedHits != 0 || st.DeriveCost != 0 {
		t.Fatalf("stats = hits %d derived %d derive cost %g, want 1/0/0", st.Hits, st.DerivedHits, st.DeriveCost)
	}
	if c.UsedBytes() != usedBefore || c.Resident() != 1 {
		t.Fatalf("capacity accounting changed: used %d→%d, resident %d",
			usedBefore, c.UsedBytes(), c.Resident())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceExecutedSkipsDerivation(t *testing.T) {
	sd := &stubDeriver{cost: 1, ancestor: "anc"}
	c, err := New(Config{Capacity: 1 << 20, K: 2, Policy: LNCRA, Deriver: sd})
	if err != nil {
		t.Fatal(err)
	}
	id := CompressID("loaded")
	hit, _ := c.ReferenceExecuted(Request{QueryID: id, Time: 1, Size: 64, Cost: 100, Plan: "derivable"}, Signature(id))
	if hit {
		t.Fatal("ReferenceExecuted must not report a hit on first sight")
	}
	if sd.calls != 0 {
		t.Fatalf("deriver consulted %d times on the executed path, want 0", sd.calls)
	}
	if st := c.Stats(); st.Admissions != 1 || st.DerivedHits != 0 {
		t.Fatalf("stats = admissions %d derived %d, want 1/0", st.Admissions, st.DerivedHits)
	}
}
