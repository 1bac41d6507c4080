// Package admission implements self-tuning cache admission for WATCHMAN.
//
// The paper's LNC-A rule admits a retrieved set only when its (estimated)
// profit exceeds the aggregate profit of the sets it would evict — a fixed
// threshold of 1.0 on the profit ratio. The paper's own evaluation shows
// the best admission aggressiveness is workload-dependent; AdaptSize
// (Berger et al., NSDI 2017) and RLCache demonstrate that tuning the
// admission parameter online from observed reference/size distributions
// beats any static setting. This package generalizes LNC-A to a tunable
// rule
//
//	admit  ⇔  profit(candidate) > θ · profit(victims)
//
// where θ = 1 is the paper's static test, θ < 1 admits more aggressively
// and θ > 1 more conservatively, and then tunes θ online:
//
//   - the Tuner is an event sink of the live cache: every reference
//     outcome reaches it, in stream order, through its ghost.Feed, and is
//     replayed at once into a small shadow cache per candidate θ on a
//     log-spaced grid (coherence invalidations reach the shadows at their
//     place in the same stream);
//   - every Window outcomes a round scores each candidate by the cost
//     savings ratio its shadow earned over the window;
//   - per-candidate scores are smoothed with an EMA across tuning rounds
//     (AdaptSize smooths per-object rates the same way) so one unusual
//     window cannot whipsaw the parameter;
//   - the winning θ is published atomically; the live admission check reads
//     it with a single atomic load, so the hot path takes no lock.
//
// Offline replays (internal/sim) leave the feed inline, so the replay is
// deterministic: each outcome is applied, and each round closed, inside
// the live cache's reference call. The sharded serving layer starts the
// feed's worker, which keeps the shadow replays off the request path.
package admission

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// Threshold is an atomically published admission parameter θ. Writers
// (the tuner) publish with Store; the admission hot path reads with a
// single lock-free atomic load.
type Threshold struct {
	bits atomic.Uint64
}

// NewThreshold returns a threshold initialized to v.
func NewThreshold(v float64) *Threshold {
	t := &Threshold{}
	t.Store(v)
	return t
}

// Load returns the current θ. It is safe for concurrent use and never
// blocks.
func (t *Threshold) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Store atomically publishes a new θ.
func (t *Threshold) Store(v float64) { t.bits.Store(math.Float64bits(v)) }

// Admitter is the live admission hook: the tunable LNC-A test
// profit > θ·bar with θ read lock-free from a Threshold. Its zero value is
// not usable; obtain one from Tuner.Admitter or NewStaticAdmitter.
type Admitter struct {
	th *Threshold
}

// Admit implements core.Admitter with the tunable LNC-A test.
func (a Admitter) Admit(d core.AdmissionDecision) bool {
	return d.Profit > a.th.Load()*d.Bar
}

// Threshold returns the admitter's current θ.
func (a Admitter) Threshold() float64 { return a.th.Load() }

// NewStaticAdmitter returns an Admitter pinned to a fixed θ. The shadow
// evaluator scores candidate thresholds with it, and θ = 1 reproduces the
// paper's static LNC-A rule exactly.
func NewStaticAdmitter(theta float64) Admitter {
	return Admitter{th: NewThreshold(theta)}
}
