package ghost

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
)

// TestSamplingPartition pins the sampling filter: deterministic per
// signature, everything at rate 1, and roughly 1/R of a hash-spread
// population at rate R.
func TestSamplingPartition(t *testing.T) {
	f1 := NewFeed(1, func(Op) {})
	f8 := NewFeed(8, func(Op) {})
	sampled := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sig := core.Signature(fmt.Sprintf("query-%d", i))
		if !f1.inSample(sig) {
			t.Fatal("rate 1 must sample everything")
		}
		if f8.inSample(sig) != f8.inSample(sig) {
			t.Fatal("sampling must be deterministic")
		}
		if f8.inSample(sig) {
			sampled++
		}
	}
	got := float64(sampled) / n
	if got < 0.10 || got > 0.15 {
		t.Errorf("rate 8 sampled fraction %.4f, want ≈0.125", got)
	}
}

// TestEmitSampledNoAlloc pins that a sampled reference carrying
// relations reaches the FIFO without a copy: the Op holds the event's own
// (read-only) relation slice.
func TestEmitSampledNoAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	f := NewFeed(1, func(Op) {})
	f.Start()
	defer f.Close()
	ev := core.Event{Kind: core.EventHit, ID: "q", Size: 64, Cost: 3, Relations: []string{"lineitem", "orders"}}
	if allocs := testing.AllocsPerRun(1000, func() { f.Emit(ev) }); allocs != 0 {
		t.Errorf("sampled Emit allocates %.1f times per event, want 0", allocs)
	}
	if _, sampled, _ := f.Counts(); sampled == 0 {
		t.Fatal("the event was not sampled")
	}
}

// TestInlineAndWorkerAgree feeds the same stream through an inline feed
// and a started one: after Drain both have applied the same Ops in the
// same order, invalidations in place.
func TestInlineAndWorkerAgree(t *testing.T) {
	var inline, worker []string
	record := func(log *[]string) func(Op) {
		return func(o Op) { *log = append(*log, fmt.Sprint(o.Kind, o.ID, o.Relations)) }
	}
	a := NewFeed(1, record(&inline))
	b := NewFeed(1, record(&worker))
	b.Start()
	defer b.Close()
	for _, f := range []*Feed{a, b} {
		for i := 0; i < 100; i++ {
			f.Emit(core.Event{Kind: core.EventMissAdmitted, ID: fmt.Sprint("q", i%7), Size: 10, Relations: []string{"r"}})
			if i%10 == 5 {
				f.Invalidate("r")
			}
			// Departures and derived bookkeeping never reach a set.
			f.Emit(core.Event{Kind: core.EventEvict, ID: "gone", Size: 10})
			f.Emit(core.Event{Kind: core.EventMissAdmitted, ID: "derived", Size: 10, Derived: true})
		}
		f.Drain()
	}
	if len(inline) != 110 || fmt.Sprint(inline) != fmt.Sprint(worker) {
		t.Fatalf("inline applied %d ops, worker %d; streams differ:\n%v\n%v", len(inline), len(worker), inline, worker)
	}
}
