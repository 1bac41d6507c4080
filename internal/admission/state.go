package admission

import (
	"fmt"
	"math"
)

// This file is the snapshot-persistence surface of the tuner: the
// published θ, the per-candidate smoothed scores, and the outcomes of the
// window in progress can be exported as plain data and restored into a
// freshly constructed Tuner, so a restarted server resumes admission at
// the tuned aggressiveness instead of the static θ = 1.
//
// The shadow caches themselves are deliberately NOT persisted: each one
// is a full cache image (as large as the live cache's metadata), and a
// restored shadow would immediately diverge from one rebuilt from live
// traffic anyway. They restart cold and re-warm over the next few tuning
// rounds, while the EMA scores — the slow-moving signal that actually
// picks θ — survive the restart.

// Sample is one reference outcome of the window in progress, in the
// canonical form the shadows replay: ID is a core.CompressID result and
// Sig its core.Signature.
type Sample struct {
	// ID is the compressed query ID.
	ID string
	// Sig is the signature of ID.
	Sig uint64
	// Size is the retrieved set size in bytes.
	Size int64
	// Cost is the execution cost in logical block reads.
	Cost float64
	// Time is the reference time in logical seconds.
	Time float64
	// Relations lists the query's base relations, so shadow caches honor
	// the same coherence invalidations the live cache does.
	Relations []string
}

// ArmState is one grid candidate's cross-round scoring state.
type ArmState struct {
	// Theta is the candidate threshold, matched against the restored
	// tuner's grid.
	Theta float64
	// Score is the cross-round EMA of windowed CSR; Seeded reports
	// whether it has observed a round yet.
	Score  float64
	Seeded bool
}

// TunerState is the exportable form of a Tuner: the published parameter,
// the per-candidate EMAs, and the outcomes of the window in progress at
// capture time.
type TunerState struct {
	// Theta is the published admission threshold.
	Theta float64
	// Arms carries each grid candidate's scoring state, in grid order.
	Arms []ArmState
	// Samples are the current window's not-yet-scored outcomes, in stream
	// order. A restored tuner replays them into its shadows so the window
	// in flight at shutdown is not lost.
	Samples []Sample
}

// ExportState captures the tuner's published θ, candidate scores and the
// window in progress. It is a consistent read under the tuner's lock; the
// caller drains the feed first if it wants every emitted outcome in it.
func (t *Tuner) ExportState() *TunerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &TunerState{Theta: t.th.Load(), Arms: make([]ArmState, len(t.arms))}
	for i, a := range t.arms {
		st.Arms[i] = ArmState{Theta: a.theta, Score: a.score, Seeded: a.seeded}
	}
	st.Samples = append([]Sample(nil), t.window...)
	return st
}

// RestoreState pours an exported state into the tuner: θ is published,
// candidate scores are matched to the grid by threshold value, and the
// window's samples are replayed into the shadows so the next tuning round
// scores them. The tuner must be freshly constructed (no
// completed rounds); candidates in the state that are not on the grid are
// ignored, and grid candidates absent from the state keep their cold
// start.
func (t *Tuner) RestoreState(st *TunerState) error {
	if !(st.Theta > 0) || math.IsInf(st.Theta, 0) {
		// The negated comparison also catches NaN, which `<= 0` lets
		// through and which would poison every admission test.
		return fmt.Errorf("admission: restore: threshold %g is not a positive finite number", st.Theta)
	}
	for i := range st.Samples {
		s := &st.Samples[i]
		// A NaN cost or time would flow into the next shadow round's
		// windowed CSR and corrupt the EMAs the whole mechanism runs on.
		if math.IsNaN(s.Cost) || math.IsInf(s.Cost, 0) || math.IsNaN(s.Time) || math.IsInf(s.Time, 0) {
			return fmt.Errorf("admission: restore: sample %d (%s) has non-finite cost %g / time %g",
				i, s.ID, s.Cost, s.Time)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq != 0 {
		return fmt.Errorf("admission: restore into a tuner that already ran %d rounds", t.seq)
	}
	byTheta := make(map[float64]*shadowArm, len(t.arms))
	for _, a := range t.arms {
		byTheta[a.theta] = a
	}
	for _, as := range st.Arms {
		if math.IsNaN(as.Score) || math.IsInf(as.Score, 0) {
			continue // a poisoned EMA would win or lose every comparison forever
		}
		if a, ok := byTheta[as.Theta]; ok {
			a.score, a.seeded = as.Score, as.Seeded
		}
	}
	t.th.Store(st.Theta)
	for _, s := range st.Samples {
		t.observe(s)
	}
	return nil
}
