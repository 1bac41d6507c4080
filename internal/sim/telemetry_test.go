package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestReplayEquivalenceGoldenTPCD pins the lifecycle refactor to the
// pre-refactor numbers: the golden Stats below were captured on the TPC-D
// trace (scale 0.005, 4000 queries, seed 7, 1% cache, K=4, LNC-RA) at the
// commit immediately before the reference path was decomposed into
// event-emitting stages. The refactor must be byte-identical: same Stats,
// same CSR bits, with or without a telemetry registry attached.
func TestReplayEquivalenceGoldenTPCD(t *testing.T) {
	golden := core.Stats{
		References:      4000,
		Hits:            1583,
		CostTotal:       3.086769e+06,
		CostSaved:       1.329957e+06,
		BytesServed:     254762,
		Admissions:      1952,
		Rejections:      465,
		Evictions:       867,
		Invalidations:   0,
		RetainedDropped: 1156,
		FragSamples:     4000,
		FragSum:         227.82427455583016,
	}
	const goldenCSRBits = 0x3FDB932A8E1F094A // 0.4308573139097872

	_, tr, err := workload.StandardTPCD(0.005, workload.Config{Queries: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	capacity := CacheBytesForFraction(tr, 1)
	if capacity != 49418 {
		t.Fatalf("capacity = %d, want 49418 (trace generation changed; re-pin the golden stats)", capacity)
	}

	bare, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Stats != golden {
		t.Fatalf("lifecycle refactor changed replay stats:\n got %+v\nwant %+v", bare.Stats, golden)
	}
	if bits := math.Float64bits(bare.CSR()); bits != goldenCSRBits {
		t.Fatalf("CSR bits = %#x (%v), want %#x", bits, bare.CSR(), goldenCSRBits)
	}

	// Attaching a registry must not perturb the replay by a single bit,
	// and the registry must agree with Stats exactly.
	reg := telemetry.NewRegistry()
	instrumented, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Sink: reg})
	if err != nil {
		t.Fatal(err)
	}
	if instrumented.Stats != golden {
		t.Fatalf("registry attachment perturbed the replay:\n got %+v\nwant %+v", instrumented.Stats, golden)
	}
	snap := reg.Snapshot()
	if snap.References() != golden.References || snap.Hits != golden.Hits {
		t.Fatalf("registry drifted: %+v", snap)
	}
	if snap.CostTotal != golden.CostTotal || snap.CostSaved != golden.CostSaved {
		t.Fatalf("registry cost accounting drifted: %g/%g", snap.CostSaved, snap.CostTotal)
	}
	if snap.Evictions != golden.Evictions {
		t.Fatalf("registry evictions %d, want %d", snap.Evictions, golden.Evictions)
	}
}

// TestReplayMulticlassPerClassCSR checks the multiclass breakdown: the
// per-class CSR columns must aggregate exactly to the total CSR (the
// golden value pinned pre-refactor), and every class must be populated.
func TestReplayMulticlassPerClassCSR(t *testing.T) {
	_, tr, err := workload.GenerateMulticlass(0, workload.Config{Queries: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const goldenCSR = 0.6275609804719918
	capacity := CacheBytesForFraction(tr, 1)
	reg := telemetry.NewRegistry()
	res, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Sink: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CSR(); math.Abs(got-goldenCSR) > 1e-15 {
		t.Fatalf("multiclass CSR = %v, want %v", got, goldenCSR)
	}
	snap := reg.Snapshot()
	if len(snap.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(snap.Classes))
	}
	var costTotal, costSaved float64
	var refs int64
	for _, c := range snap.Classes {
		if c.References == 0 {
			t.Fatalf("class %d saw no references", c.Class)
		}
		costTotal += c.CostTotal
		costSaved += c.CostSaved
		refs += c.References
	}
	if refs != res.Stats.References {
		t.Fatalf("per-class references sum to %d, want %d", refs, res.Stats.References)
	}
	// Per-class cost sums must reconstruct the aggregate CSR exactly up to
	// float addition order.
	if math.Abs(costSaved/costTotal-res.CSR()) > 1e-12 {
		t.Fatalf("per-class CSR aggregate %v, total %v", costSaved/costTotal, res.CSR())
	}
}
