package admission

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// tunedState runs enough bimodal traffic through a tuner to move θ off
// the static 1 and returns the tuner plus its exported state.
func tunedState(t *testing.T) (*Tuner, *TunerState) {
	t.Helper()
	tn, err := New(Config{Capacity: 8 << 10, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	for i := 0; i < 1000; i++ {
		now += rng.Float64()
		id := core.CompressID("hot")
		if rng.Intn(4) == 0 {
			id = core.CompressID("cold")
		}
		emit(tn, Sample{ID: id, Sig: core.Signature(id), Size: rng.Int63n(200) + 1,
			Cost: float64(rng.Intn(500)) + 1, Time: now})
	}
	// Leave a partial window open so the export carries samples.
	for i := 0; i < 20; i++ {
		now++
		emit(tn, Sample{ID: "tail", Sig: core.Signature("tail"), Size: 10, Cost: 5, Time: now})
	}
	return tn, tn.ExportState()
}

func TestTunerExportRestore(t *testing.T) {
	src, st := tunedState(t)
	if len(st.Arms) != len(src.Grid()) {
		t.Fatalf("exported %d arms for a %d-candidate grid", len(st.Arms), len(src.Grid()))
	}
	if len(st.Samples) == 0 {
		t.Fatal("export must carry the open partial window")
	}

	dst, err := New(Config{Capacity: 8 << 10, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if dst.Threshold() != st.Theta {
		t.Fatalf("θ = %g, want %g", dst.Threshold(), st.Theta)
	}
	// The re-export must carry the same θ, arm scores and samples.
	re := dst.ExportState()
	if re.Theta != st.Theta || !reflect.DeepEqual(re.Arms, st.Arms) {
		t.Fatalf("re-export differs:\n  want %+v\n  got  %+v", st, re)
	}
	if len(re.Samples) != len(st.Samples) {
		t.Fatalf("re-export carries %d samples, want %d", len(re.Samples), len(st.Samples))
	}

	// The restored samples must be scorable: a synchronous round runs on
	// them without error (20 samples ≥ the 16-sample minimum).
	if _, ok := dst.TuneOnce(); !ok {
		t.Fatal("restored window did not score")
	}
}

// TestTunerRestorePreconditions: a tuner that already completed rounds
// must refuse a restore, and nonsense thresholds are rejected.
func TestTunerRestorePreconditions(t *testing.T) {
	src, st := tunedState(t)
	if err := src.RestoreState(st); err == nil {
		t.Fatal("restore into a tuner with completed rounds must fail")
	}
	dst, err := New(Config{Capacity: 8 << 10, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(&TunerState{Theta: 0}); err == nil {
		t.Fatal("zero θ must be rejected")
	}
	if err := dst.RestoreState(&TunerState{Theta: -2}); err == nil {
		t.Fatal("negative θ must be rejected")
	}
	if err := dst.RestoreState(&TunerState{Theta: math.NaN()}); err == nil {
		t.Fatal("NaN θ must be rejected")
	}
	if err := dst.RestoreState(&TunerState{Theta: math.Inf(1)}); err == nil {
		t.Fatal("infinite θ must be rejected")
	}
	// Poisoned arm scores are skipped, not installed.
	if err := dst.RestoreState(&TunerState{Theta: 1,
		Arms: []ArmState{{Theta: 1, Score: math.NaN(), Seeded: true}}}); err != nil {
		t.Fatal(err)
	}
	for _, a := range dst.ExportState().Arms {
		if a.Theta == 1 && a.Seeded {
			t.Fatal("NaN-scored arm must stay cold")
		}
	}
}

// TestTunerRestoreGridMismatch: candidates missing from the restored grid
// are ignored, present ones keep their smoothed scores.
func TestTunerRestoreGridMismatch(t *testing.T) {
	dst, err := New(Config{Capacity: 8 << 10, Window: 64, Grid: []float64{0.5, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := &TunerState{
		Theta: 2,
		Arms: []ArmState{
			{Theta: 0.25, Score: 0.9, Seeded: true}, // not on the grid: ignored
			{Theta: 2, Score: 0.7, Seeded: true},
		},
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	re := dst.ExportState()
	if re.Theta != 2 {
		t.Fatalf("θ = %g", re.Theta)
	}
	for _, a := range re.Arms {
		switch a.Theta {
		case 2:
			if !a.Seeded || a.Score != 0.7 {
				t.Fatalf("θ=2 arm = %+v", a)
			}
		default:
			if a.Seeded {
				t.Fatalf("arm %+v should be cold", a)
			}
		}
	}
}
