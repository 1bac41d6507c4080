package flight

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func span(id string, start, total int64) core.Span {
	return core.Span{ID: id, Start: start, Total: total}
}

// TestSamplingRatio checks one-in-N capture: 1000 spans at SampleEvery 10
// must land exactly 100 in the ring.
func TestSamplingRatio(t *testing.T) {
	r := New(Config{SampleEvery: 10, SlowThreshold: -1})
	tr := r.ShardTracer(0)
	for i := 0; i < 1000; i++ {
		tr.ObserveSpan(span(fmt.Sprint(i), int64(i), 1))
	}
	if got := len(r.Spans(0)); got != 100 {
		t.Errorf("captured %d spans, want 100 (1 in 10 of 1000)", got)
	}
}

// TestSampleEveryOne captures every span.
func TestSampleEveryOne(t *testing.T) {
	r := New(Config{SampleEvery: 1, SlowThreshold: -1})
	tr := r.ShardTracer(0)
	for i := 0; i < 50; i++ {
		tr.ObserveSpan(span(fmt.Sprint(i), int64(i), 1))
	}
	if got := len(r.Spans(0)); got != 50 {
		t.Errorf("captured %d spans, want 50", got)
	}
}

// TestSlowAlwaysCaptured checks spans at or above the slow threshold are
// captured regardless of the sampling ratio.
func TestSlowAlwaysCaptured(t *testing.T) {
	r := New(Config{SampleEvery: 1000000, SlowThreshold: time.Microsecond})
	tr := r.ShardTracer(0)
	for i := 0; i < 10; i++ {
		tr.ObserveSpan(span("fast", int64(i), 10)) // 10 ns: below threshold
	}
	tr.ObserveSpan(span("slow", 100, int64(5*time.Millisecond)))
	spans := r.Spans(0)
	if len(spans) != 1 || spans[0].ID != "slow" {
		t.Errorf("spans = %+v, want exactly the slow one", spans)
	}
	if slowest := r.Slowest(1); len(slowest) != 1 || slowest[0].ID != "slow" {
		t.Errorf("Slowest = %+v", slowest)
	}
}

// TestRingWraparound checks the span ring keeps the newest records once
// full, and Spans orders newest first.
func TestRingWraparound(t *testing.T) {
	r := New(Config{SampleEvery: 1, SlowThreshold: -1})
	tr := r.ShardTracer(0)
	const n = spanBuffer + 6
	for i := 0; i < n; i++ {
		tr.ObserveSpan(span(fmt.Sprint(i), int64(i), 1))
	}
	spans := r.Spans(0)
	if len(spans) != spanBuffer {
		t.Fatalf("ring holds %d spans, want %d", len(spans), spanBuffer)
	}
	for i := range spans {
		if want := fmt.Sprint(n - 1 - i); spans[i].ID != want {
			t.Fatalf("spans[%d] = %q, want %q (newest first)", i, spans[i].ID, want)
		}
	}
	if limited := r.Spans(2); len(limited) != 2 || limited[0].ID != fmt.Sprint(n-1) {
		t.Errorf("Spans(2) = %+v", limited)
	}
}

// TestStageHistogramsCoverUnsampledSpans checks every span feeds the
// registry's stage histograms even when sampling drops it from the ring.
func TestStageHistogramsCoverUnsampledSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(Config{SampleEvery: 1000000, SlowThreshold: -1, Registry: reg})
	tr := r.ShardTracer(0)
	for i := 0; i < 20; i++ {
		sp := span(fmt.Sprint(i), int64(i), 1000)
		sp.Stages[core.StageLookup] = 500
		sp.Stages[core.StageAdmit] = 1500
		tr.ObserveSpan(sp)
	}
	if got := len(r.Spans(0)); got != 0 {
		t.Fatalf("sampling must have dropped all spans, ring has %d", got)
	}
	snap := reg.Snapshot()
	byStage := map[string]int64{}
	for _, st := range snap.Stages {
		byStage[st.Stage] = st.Count
	}
	if byStage["lookup"] != 20 || byStage["admit"] != 20 {
		t.Errorf("stage counts = %v, want 20 lookup and 20 admit", byStage)
	}
	if byStage["load"] != 0 || byStage["evict"] != 0 {
		t.Errorf("stage counts = %v, want zero for stages never timed", byStage)
	}
}

func decisionEvent(kind core.EventKind, id string, seq float64) core.Event {
	return core.Event{Kind: kind, ID: id, Time: seq, Size: 100, Cost: 10,
		Profit: 0.5, Bar: 2, Theta: 1, Decided: true}
}

// TestDecisionsAndLastDecision checks decision capture is unconditional,
// ordered by Seq, and LastDecision returns the newest per signature.
func TestDecisionsAndLastDecision(t *testing.T) {
	r := New(Config{})
	sink := r.ShardSink(0)
	sink.Emit(decisionEvent(core.EventMissRejected, "a", 1))
	sink.Emit(decisionEvent(core.EventMissRejected, "b", 2))
	sink.Emit(decisionEvent(core.EventMissAdmitted, "a", 3))
	sink.Emit(core.Event{Kind: core.EventHit, ID: "a", Time: 4}) // ignored

	decs := r.Decisions(0)
	if len(decs) != 3 {
		t.Fatalf("decisions = %d, want 3 (hits are not decisions)", len(decs))
	}
	if decs[0].ID != "a" || decs[0].Kind != "miss_admitted" {
		t.Errorf("newest decision = %+v, want a's admission", decs[0])
	}
	d, ok := r.LastDecision("a")
	if !ok || d.Kind != "miss_admitted" || d.Time != 3 {
		t.Errorf("LastDecision(a) = %+v ok=%v, want the admission at t=3", d, ok)
	}
	if _, ok := r.LastDecision("never-seen"); ok {
		t.Error("LastDecision of an unseen signature must report not found")
	}
	if got := r.Decisions(2); len(got) != 2 || got[0].Seq < got[1].Seq {
		t.Errorf("Decisions(2) = %+v, want 2 newest-first", got)
	}
}

// TestDecisionRing checks the decision ring is bounded and keeps newest.
func TestDecisionRing(t *testing.T) {
	r := New(Config{})
	sink := r.ShardSink(0)
	const n = decisionBuffer + 6
	for i := 0; i < n; i++ {
		sink.Emit(decisionEvent(core.EventMissRejected, fmt.Sprint(i), float64(i)))
	}
	decs := r.Decisions(0)
	if len(decs) != decisionBuffer {
		t.Fatalf("ring holds %d decisions, want %d", len(decs), decisionBuffer)
	}
	if decs[0].ID != fmt.Sprint(n-1) || decs[len(decs)-1].ID != "6" {
		t.Errorf("decisions run %s..%s, want %d..6", decs[0].ID, decs[len(decs)-1].ID, n-1)
	}
	if _, ok := r.LastDecision("0"); ok {
		t.Error("overwritten decision must no longer be found")
	}
}

// TestShardIsolation checks shards write distinct rings and readers merge
// them.
func TestShardIsolation(t *testing.T) {
	r := New(Config{SampleEvery: 1, SlowThreshold: -1})
	r.ShardTracer(0).ObserveSpan(span("s0", 1, 1))
	r.ShardTracer(3).ObserveSpan(span("s3", 2, 1))
	spans := r.Spans(0)
	if len(spans) != 2 || spans[0].ID != "s3" || spans[1].ID != "s0" {
		t.Errorf("merged spans = %+v", spans)
	}
}

// TestConcurrentWritersAndReaders hammers the rings from many goroutines;
// run with -race.
func TestConcurrentWritersAndReaders(t *testing.T) {
	r := New(Config{SampleEvery: 2, SlowThreshold: -1})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tr, sink := r.ShardTracer(s), r.ShardSink(s)
			for i := 0; i < 500; i++ {
				tr.ObserveSpan(span(fmt.Sprint(i), int64(i), int64(i)))
				sink.Emit(decisionEvent(core.EventMissRejected, fmt.Sprint(i), float64(i)))
			}
		}(s)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Spans(10)
				r.Slowest(10)
				r.Decisions(10)
				r.LastDecision("42")
			}
		}()
	}
	wg.Wait()
}

// TestRegretTracker checks the full regret lifecycle: reject, re-reference,
// rank by cost forgone.
func TestRegretTracker(t *testing.T) {
	tr := NewRegretTracker(0)
	reject := func(id string, cost float64) {
		tr.Emit(core.Event{Kind: core.EventMissRejected, ID: id, Cost: cost,
			Decided: true, Profit: 0.1, Bar: 5, Theta: 1})
	}
	// "pricey" rejected once, re-referenced twice (one more rejection + one
	// external miss).
	reject("pricey", 100)
	reject("pricey", 100)
	tr.Emit(core.Event{Kind: core.EventExternalMiss, ID: "pricey", Cost: 100})
	// "cheap" rejected once, re-referenced once.
	reject("cheap", 10)
	reject("cheap", 10)
	// "once" rejected but never seen again: no regret.
	reject("once", 1000)
	// A later admission still counts as a re-reference (the reject cost a
	// remote execution) but closes the story.
	tr.Emit(core.Event{Kind: core.EventMissAdmitted, ID: "cheap", Cost: 10})

	top := tr.Top(10)
	if len(top) != 2 {
		t.Fatalf("top = %+v, want pricey and cheap only", top)
	}
	if top[0].ID != "pricey" || top[0].CostForgone != 200 || top[0].Rejections != 2 || top[0].Rerefs != 2 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].ID != "cheap" || top[1].CostForgone != 20 || top[1].Rerefs != 2 {
		t.Errorf("top[1] = %+v", top[1])
	}
	if top[0].LastProfit != 0.1 || top[0].LastBar != 5 || top[0].LastTheta != 1 {
		t.Errorf("last inputs = %+v", top[0])
	}
	if tr.Tracked() != 3 {
		t.Errorf("tracked = %d, want 3", tr.Tracked())
	}
	if limited := tr.Top(1); len(limited) != 1 || limited[0].ID != "pricey" {
		t.Errorf("Top(1) = %+v", limited)
	}
}

// TestRegretSkipsDerived checks derived-set admission bookkeeping does not
// pollute the regret report.
func TestRegretSkipsDerived(t *testing.T) {
	tr := NewRegretTracker(0)
	tr.Emit(core.Event{Kind: core.EventMissRejected, ID: "d", Cost: 50, Derived: true})
	if tr.Tracked() != 0 {
		t.Errorf("tracked = %d, want 0 (derived decisions skipped)", tr.Tracked())
	}
}

// TestRegretBounded checks the tracker drops new signatures once full
// rather than growing without bound.
func TestRegretBounded(t *testing.T) {
	tr := NewRegretTracker(2)
	for i := 0; i < 5; i++ {
		tr.Emit(core.Event{Kind: core.EventMissRejected, ID: fmt.Sprint(i), Cost: 1})
	}
	if tr.Tracked() != 2 {
		t.Errorf("tracked = %d, want 2 (bounded)", tr.Tracked())
	}
}

// Decisions returns up to limit decision records, newest first. limit ≤ 0
// returns all.
func (r *Recorder) Decisions(limit int) []Decision {
	var out []Decision
	for _, s := range r.all() {
		s.mu.Lock()
		out = append(out, s.decs[:s.decCount]...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
