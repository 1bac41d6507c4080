package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/whatif"
	"repro/internal/workload"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/replay_pins.json from the current code")

// adaptivePin is the part of an adaptive replay the pin compares.
type adaptivePin struct {
	FinalThreshold float64
	Rounds         int
	Switches       int
	Stats          core.Stats
}

// replayPins is everything TestReplayPins holds fixed.
type replayPins struct {
	AdaptiveTPCD       adaptivePin
	AdaptiveMulticlass adaptivePin
	WhatIfRate1        []whatif.CellReport
	WhatIfRate4        []whatif.CellReport
}

// TestReplayPins pins the adaptive replay and the what-if grid to exact
// values, so a refactor of how the tuner or the ghosts are fed cannot
// move a decision unnoticed. Determinism tests compare a run with
// itself; this compares it with testdata/replay_pins.json, float bits
// included (encoding/json writes the shortest exact representation).
// Regenerate with -update-pins only for a change meant to move a number.
func TestReplayPins(t *testing.T) {
	adaptive := func(tr *trace.Trace) adaptivePin {
		res, _, err := ReplayAdaptive(tr, core.Config{Capacity: CacheBytesForFraction(tr, 1), K: 4},
			admission.Config{Window: 500})
		if err != nil {
			t.Fatal(err)
		}
		return adaptivePin{res.FinalThreshold, res.Rounds, res.Switches, res.Stats}
	}
	tpcd := tpcdTrace(t, 3000)
	_, multi, err := workload.GenerateMulticlass(0, workload.Config{Queries: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	whatIf := func(rate int) []whatif.CellReport {
		cfg := core.Config{Capacity: CacheBytesForFraction(tpcd, 1), K: 4, Policy: core.LNCRA}
		_, rep, err := ReplayWhatIf(tpcd, cfg, whatif.Config{SampleRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cells
	}
	got, err := json.MarshalIndent(replayPins{
		AdaptiveTPCD:       adaptive(tpcd),
		AdaptiveMulticlass: adaptive(multi),
		WhatIfRate1:        whatIf(1),
		WhatIfRate4:        whatIf(4),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "replay_pins.json")
	if *updatePins {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replay results moved from %s:\n%s", path, got)
	}
}
