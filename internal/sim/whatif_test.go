package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestWhatIfGhostFidelityRate1 is the ghost-fidelity golden test: at
// sampling rate 1 and scale 1 the ghost sees every reference the real
// cache serves, in order and in canonical form, so a same-policy ghost
// must finish with the real cache's Stats bit-for-bit — same decisions,
// same counters, same CSR. Any drift means event reconstruction lost
// information.
func TestWhatIfGhostFidelityRate1(t *testing.T) {
	_, tr, err := workload.StandardTPCD(0.005, workload.Config{Queries: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Capacity: CacheBytesForFraction(tr, 1),
		K:        4,
		Policy:   core.LNCRA,
	}
	res, rep, err := ReplayWhatIf(tr, cfg, whatif.Config{SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefsSeen != int64(tr.Len()) || rep.RefsShed != 0 {
		t.Fatalf("matrix saw %d refs (shed %d), trace has %d", rep.RefsSeen, rep.RefsShed, tr.Len())
	}
	// Every cell is an independent ghost fed the same ops; the lnc-ra 1x
	// cell is the real cache's twin.
	var ghost whatif.CellReport
	for _, c := range rep.Cells {
		if c.Policy == "lnc-ra" && c.Scale == 1 {
			ghost = c
		}
	}
	if ghost.Stats != res.Stats {
		t.Errorf("rate-1 ghost diverged from the real cache:\n ghost %+v\n real  %+v", ghost.Stats, res.Stats)
	}
	if ghost.CSR != res.CSR() {
		t.Errorf("ghost CSR %v != real CSR %v", ghost.CSR, res.CSR())
	}
}

// TestWhatIfSampledAccuracy validates the SHARDS construction end to
// end: a rate-8 matrix over the full default grid (capacity ladder ×
// policy set) must estimate, for every cell, a CSR within 0.02 of the
// brute-force full replay of that configuration.
//
// The workload is the multiclass benchmark: its retrieved-set sizes stay
// within ~2 decades, so a 1/8 signature sample carries close to 1/8 of
// the working-set byte mass and the spatial-sampling premise holds. The
// TPC-D trace's extreme size tail (4 bytes to 70 KB over ~4600 distinct
// sets) makes the sampled mass fraction land far from 1/8 no matter the
// seed — a documented limit of fixed-rate spatial sampling, not a bug —
// so it is the fidelity golden above, not the accuracy workload.
func TestWhatIfSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force replay grid")
	}
	const rate = 8
	_, tr, err := workload.GenerateMulticlass(0, workload.Config{Queries: 16000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	capacity := CacheBytesForFraction(tr, 2)
	cfg := core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA}
	tuneWindow := max(admission.MinWindow, admission.DefaultWindow/rate)
	_, rep, err := ReplayWhatIf(tr, cfg, whatif.Config{
		SampleRate: rate,
		TuneWindow: tuneWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Cells), len(whatif.DefaultScales())*len(whatif.DefaultPolicies()); got != want {
		t.Fatalf("default matrix has %d cells, want %d", got, want)
	}
	if rep.RefsShed != 0 {
		t.Fatalf("blocking replay shed %d refs", rep.RefsShed)
	}

	// Brute-force comparator for each cell: a full (unsampled) replay of
	// the trace at the cell's modeled capacity under the cell's policy.
	full := make(map[string]float64)
	for _, c := range rep.Cells {
		key := fmt.Sprintf("%s/%v", c.Policy, c.Scale)
		ccfg := cfg
		ccfg.Capacity = c.ModeledBytes
		if c.Policy == "lnc-ra-adaptive" {
			// The ghost tuner rounds every tuneWindow sampled refs; the
			// full-stream equivalent cadence is one round per
			// tuneWindow×R references.
			ar, _, err := ReplayAdaptive(tr, ccfg, admission.Config{Window: tuneWindow * rate})
			if err != nil {
				t.Fatal(err)
			}
			full[key] = ar.CSR()
			continue
		}
		pk, err := core.ParsePolicy(c.Policy)
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Policy = pk
		r, _, err := Replay(tr, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		full[key] = r.CSR()
	}

	const tolerance = 0.02
	for _, c := range rep.Cells {
		key := fmt.Sprintf("%s/%v", c.Policy, c.Scale)
		diff := math.Abs(c.CSR - full[key])
		if diff > tolerance {
			t.Errorf("cell %s: ghost CSR %.4f vs full-replay CSR %.4f (|Δ|=%.4f > %.2f)",
				key, c.CSR, full[key], diff, tolerance)
		} else {
			t.Logf("cell %s: ghost %.4f full %.4f |Δ|=%.4f", key, c.CSR, full[key], diff)
		}
	}
}
