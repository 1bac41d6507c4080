package core

import (
	"testing"
)

// captureTracer records every span handed to it.
type captureTracer struct {
	spans []Span
}

func (t *captureTracer) ObserveSpan(sp Span) { t.spans = append(t.spans, sp) }

func (t *captureTracer) last(tt *testing.T) Span {
	tt.Helper()
	if len(t.spans) == 0 {
		tt.Fatal("no spans captured")
	}
	return t.spans[len(t.spans)-1]
}

// captureSink records every event, for cross-checking spans against the
// event stream.
type captureEventSink struct {
	events []Event
}

func (s *captureEventSink) Emit(ev Event) { s.events = append(s.events, ev) }

func newTracedCache(t *testing.T, cfg Config, tr *captureTracer) *Cache {
	t.Helper()
	cfg.Tracer = tr
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSpanPerReference checks that with a tracer attached every reference
// completes exactly one span carrying its identity and outcome.
func TestSpanPerReference(t *testing.T) {
	tr := &captureTracer{}
	c := newTracedCache(t, Config{Capacity: 1 << 20, K: 2, Policy: LNCRA}, tr)

	c.Reference(Request{QueryID: "q1", Time: 1, Class: 3, Size: 100, Cost: 50})
	if len(tr.spans) != 1 {
		t.Fatalf("spans after miss = %d, want 1", len(tr.spans))
	}
	sp := tr.last(t)
	if sp.Outcome != EventMissAdmitted {
		t.Errorf("miss outcome = %v, want %v", sp.Outcome, EventMissAdmitted)
	}
	if sp.ID != CompressID("q1") || sp.Class != 3 || sp.Size != 100 || sp.Cost != 50 || sp.Time != 1 {
		t.Errorf("span identity = %+v", sp)
	}
	if sp.Decided {
		t.Error("free-space admission must not report a decided comparison")
	}
	if sp.Total < 0 {
		t.Errorf("total = %d, want >= 0", sp.Total)
	}

	c.Reference(Request{QueryID: "q1", Time: 2, Class: 3, Size: 100, Cost: 50})
	if len(tr.spans) != 2 {
		t.Fatalf("spans after hit = %d, want 2", len(tr.spans))
	}
	sp = tr.last(t)
	if sp.Outcome != EventHit {
		t.Errorf("hit outcome = %v, want %v", sp.Outcome, EventHit)
	}
	if sp.Lambda <= 0 || sp.RefDepth != 2 {
		t.Errorf("hit span λ=%g refs=%d, want λ>0 refs=2", sp.Lambda, sp.RefDepth)
	}
}

// TestSpanRejectionMatchesEvent checks the span's decision inputs are the
// exact floats the admission gate evaluated (cross-checked against the
// MissRejected event), including θ from the LNC-A admitter.
func TestSpanRejectionMatchesEvent(t *testing.T) {
	tr := &captureTracer{}
	sink := &captureEventSink{}
	// A tiny cache the resident set fills exactly, so the next admission
	// must propose victims and run the profit comparison.
	c := newTracedCache(t, Config{Capacity: 1000, K: 2, Policy: LNCRA, Sink: sink}, tr)

	// Make "hot" valuable: many references, high cost.
	for i := 0; i < 6; i++ {
		c.Reference(Request{QueryID: "hot", Time: float64(i + 1), Size: 1000, Cost: 500})
	}
	// A cheap, never-seen set must be rejected by LNC-A.
	c.Reference(Request{QueryID: "cheap", Time: 10, Size: 1000, Cost: 0.001})

	sp := tr.last(t)
	if sp.Outcome != EventMissRejected {
		t.Fatalf("outcome = %v, want %v", sp.Outcome, EventMissRejected)
	}
	if !sp.Decided {
		t.Fatal("rejection with victims must report a decided comparison")
	}
	if sp.Theta != 1 {
		t.Errorf("θ = %g, want 1 (the static LNC-A admitter)", sp.Theta)
	}
	if sp.HasHistory {
		t.Error("first reference must use the e-profit estimate (no history)")
	}
	if sp.Profit > sp.Theta*sp.Bar {
		t.Errorf("rejected span has profit %g > θ·bar %g", sp.Profit, sp.Theta*sp.Bar)
	}
	if sp.Victims == 0 {
		t.Error("decided rejection must report its victim candidates")
	}

	var ev Event
	found := false
	for _, e := range sink.events {
		if e.Kind == EventMissRejected {
			ev, found = e, true
		}
	}
	if !found {
		t.Fatal("no MissRejected event emitted")
	}
	if ev.Profit != sp.Profit || ev.Bar != sp.Bar || ev.Theta != sp.Theta ||
		ev.Decided != sp.Decided || ev.HasHistory != sp.HasHistory {
		t.Errorf("span decision %+v disagrees with event %+v", sp, ev)
	}
}

// TestSpanEvictionStage checks an admission that displaces victims times
// the evict and insert stages and reports the victim count.
func TestSpanEvictionStage(t *testing.T) {
	tr := &captureTracer{}
	c := newTracedCache(t, Config{Capacity: 1000, K: 2, Policy: LNCRA}, tr)

	for i := 0; i < 4; i++ {
		c.Reference(Request{QueryID: "old", Time: float64(i + 1), Size: 1000, Cost: 1})
	}
	// A much more profitable set displaces it.
	for i := 0; i < 4; i++ {
		c.Reference(Request{QueryID: "new", Time: float64(10 + i), Size: 1000, Cost: 1e6})
	}
	var admitted *Span
	for i := range tr.spans {
		sp := &tr.spans[i]
		if sp.ID == CompressID("new") && sp.Outcome == EventMissAdmitted && sp.Decided {
			admitted = sp
		}
	}
	if admitted == nil {
		t.Fatal("no decided admission span for the displacing set")
	}
	if admitted.Victims != 1 {
		t.Errorf("victims = %d, want 1", admitted.Victims)
	}
	if admitted.Profit <= admitted.Theta*admitted.Bar {
		t.Errorf("admitted span has profit %g <= θ·bar %g", admitted.Profit, admitted.Theta*admitted.Bar)
	}
}

// TestSpanExecNanosAttribution checks externally measured loader time
// (Request.ExecNanos) lands in the load stage, on both the admission and
// the external-miss paths.
func TestSpanExecNanosAttribution(t *testing.T) {
	tr := &captureTracer{}
	c := newTracedCache(t, Config{Capacity: 1 << 20, K: 2, Policy: LNCRA}, tr)

	c.Reference(Request{QueryID: "q", Time: 1, Size: 100, Cost: 10, ExecNanos: 12345})
	sp := tr.last(t)
	if sp.Stages[StageLoad] != 12345 {
		t.Errorf("load stage = %d ns, want 12345", sp.Stages[StageLoad])
	}

	id := CompressID("qd")
	c.Account(Request{QueryID: id, Time: 3, Size: 100, Cost: 10, ExecNanos: 999}, false)
	sp = tr.last(t)
	if sp.Stages[StageLoad] != 999 {
		t.Errorf("Account load stage = %d ns, want 999", sp.Stages[StageLoad])
	}
	if sp.Outcome != EventExternalMiss {
		t.Errorf("Account outcome = %v, want %v", sp.Outcome, EventExternalMiss)
	}
}

// TestSpanDerivedHit checks an inline derivation completes a HitDerived
// span naming the ancestor it was derived from.
func TestSpanDerivedHit(t *testing.T) {
	tr := &captureTracer{}
	c := newTracedCache(t, Config{Capacity: 1 << 20, K: 2, Policy: LNCRA,
		Deriver: &stubDeriver{cost: 1, ancestor: CompressID("anc")}}, tr)

	c.Reference(Request{QueryID: "anc", Time: 1, Size: 100, Cost: 10, Plan: "opaque"})
	c.Reference(Request{QueryID: "qd", Time: 2, Size: 100, Cost: 10, Plan: "derivable"})
	sp := tr.last(t)
	if sp.Outcome != EventHitDerived {
		t.Errorf("outcome = %v, want %v", sp.Outcome, EventHitDerived)
	}
	if sp.AncestorID != CompressID("anc") {
		t.Errorf("ancestor = %q, want %q", sp.AncestorID, CompressID("anc"))
	}
}

// TestSpanReferenceEntry checks the single-lookup hit path completes a
// Hit span with the entry's stored identity.
func TestSpanReferenceEntry(t *testing.T) {
	tr := &captureTracer{}
	c := newTracedCache(t, Config{Capacity: 1 << 20, K: 2, Policy: LNCRA}, tr)
	c.Reference(Request{QueryID: "q", Time: 1, Size: 64, Cost: 5, Payload: "rows"})
	e, ok := c.Lookup("q")
	if !ok {
		t.Fatal("entry not resident")
	}
	before := len(tr.spans)
	c.ReferenceEntry(e, 2, 7)
	if len(tr.spans) != before+1 {
		t.Fatalf("spans = %d, want %d", len(tr.spans), before+1)
	}
	sp := tr.last(t)
	if sp.Outcome != EventHit || sp.ID != CompressID("q") || sp.Class != 7 || sp.Size != 64 {
		t.Errorf("span = %+v", sp)
	}
}

// TestSpanStageNames pins the stage labels the telemetry exposition uses.
func TestSpanStageNames(t *testing.T) {
	want := map[Stage]string{
		StageLookup: "lookup", StageDerive: "derive", StageLoad: "load",
		StageAdmit: "admit", StageInsert: "insert", StageEvict: "evict",
		NumStages: "unknown",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), name)
		}
	}
}

// TestSpanDisabled checks no spans are produced (and nothing panics)
// without a tracer — the nil-check contract of the disabled hot path.
func TestSpanDisabled(t *testing.T) {
	c, err := New(Config{Capacity: 1000, K: 2, Policy: LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Reference(Request{QueryID: "q", Time: float64(i + 1), Size: 1000, Cost: 10})
		c.Reference(Request{QueryID: "other", Time: float64(i + 1), Size: 1000, Cost: 1})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
