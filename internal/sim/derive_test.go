package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestDrilldownDeriveBeatsExact is the acceptance check of the semantic
// derivation subsystem: on the drilldown/rollup workload, derive-enabled
// LNC-RA must strictly beat exact-only LNC-RA on cost-savings ratio, with
// a non-trivial number of derived hits.
func TestDrilldownDeriveBeatsExact(t *testing.T) {
	_, tr, err := workload.StandardDrilldown(0, workload.Config{Queries: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasPlans() {
		t.Fatal("drilldown trace carries no plan descriptors")
	}
	capacity := CacheBytesForFraction(tr, 1)

	exact, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	d := derive.New(derive.Config{})
	derived, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Deriver: d})
	if err != nil {
		t.Fatal(err)
	}

	if derived.Stats.DerivedHits < 20 {
		t.Fatalf("DerivedHits = %d, want a meaningful number on the drilldown trace", derived.Stats.DerivedHits)
	}
	if derived.CSR() <= exact.CSR() {
		t.Fatalf("derive-enabled CSR %.4f must strictly beat exact-only CSR %.4f",
			derived.CSR(), exact.CSR())
	}
	if ds := d.Stats(); ds.Derived != derived.Stats.DerivedHits {
		t.Fatalf("deriver counted %d derivations, cache charged %d derived hits", ds.Derived, derived.Stats.DerivedHits)
	}
}

// TestReplayDerivedDeterministic pins derived-replay determinism: candidate
// selection tie-breaks deterministically, so equal traces and configs
// give identical stats.
func TestReplayDerivedDeterministic(t *testing.T) {
	_, tr, err := workload.StandardDrilldown(0, workload.Config{Queries: 1200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	capacity := CacheBytesForFraction(tr, 1)
	a, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Deriver: derive.New(derive.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Deriver: derive.New(derive.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("replays diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestReplayDerivedTelemetry checks the derived outcome is visible end to
// end through the registry: per-class derived hits, the reference
// partition, and CSR consistency with the cache's own counters.
func TestReplayDerivedTelemetry(t *testing.T) {
	_, tr, err := workload.StandardDrilldown(0, workload.Config{Queries: 1500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	capacity := CacheBytesForFraction(tr, 1)
	res, _, err := Replay(tr,
		core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Sink: reg, Deriver: derive.New(derive.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.DerivedHits != res.Stats.DerivedHits {
		t.Fatalf("registry DerivedHits = %d, cache %d", snap.DerivedHits, res.Stats.DerivedHits)
	}
	if snap.References() != res.Stats.References {
		t.Fatalf("registry references = %d, cache %d (partition broken)", snap.References(), res.Stats.References)
	}
	if got, want := snap.CSR(), res.CSR(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("registry CSR = %.6f, cache %.6f", got, want)
	}
	var classDerived int64
	for _, c := range snap.Classes {
		classDerived += c.DerivedHits
	}
	if classDerived != snap.DerivedHits {
		t.Fatalf("per-class derived hits sum to %d, aggregate %d", classDerived, snap.DerivedHits)
	}
}
