package admission

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Default tuning parameters, chosen so a tuning round is cheap relative to
// the live traffic it profiles (the shadow evaluator replays the window
// once per grid candidate).
const (
	// DefaultWindow is the number of references per tuning round.
	DefaultWindow = 2000
	// DefaultAlpha is the EMA factor applied to per-candidate scores
	// across rounds (weight of the newest round).
	DefaultAlpha = 0.5
	// DefaultEpsilon is the minimum smoothed cost-savings improvement over
	// the incumbent θ required to switch. Hysteresis: without it, score
	// noise between near-equal candidates would churn the parameter.
	DefaultEpsilon = 0.005
	// DefaultHistory is the number of tuning rounds kept for diagnostics.
	DefaultHistory = 64
	// MinWindow is the smallest Config.Window New accepts; callers that
	// derive a window (e.g. scaling by a sampling rate) clamp against it.
	MinWindow = 16
	// minRoundSamples is the smallest window the tuner will score; tiny
	// windows (e.g. a drain racing a concurrent round) carry no signal.
	minRoundSamples = MinWindow
)

// DefaultGrid returns the default log-spaced candidate grid for θ: 13
// points spanning 2⁻⁶ … 2⁶, symmetric around (and including) the static
// LNC-A setting θ = 1.
func DefaultGrid() []float64 {
	grid := make([]float64, 13)
	for i := range grid {
		grid[i] = math.Pow(2, float64(i-6))
	}
	return grid
}

// Config parameterizes a Tuner.
type Config struct {
	// Capacity is the shadow cache capacity in bytes. Use the live
	// cache's total capacity so shadow replacement pressure matches the
	// pressure the live trace experienced. Required.
	Capacity int64
	// K is the reference-window size of the shadow caches. Zero selects
	// the live default (4).
	K int
	// Evictor is ignored: the shadows use the one victim search there is.
	Evictor core.EvictorKind
	// Window is the number of recorded references per tuning round; it
	// must be at least 16 (smaller windows carry no tuning signal and are
	// rejected rather than silently never scoring). Zero selects
	// DefaultWindow.
	Window int
	// Grid lists the candidate thresholds θ to score. It must contain the
	// initial threshold 1. Nil selects DefaultGrid.
	Grid []float64
	// Alpha is the EMA factor for per-candidate scores across rounds, in
	// (0, 1]; 1 disables smoothing. Zero selects DefaultAlpha.
	Alpha float64
	// Epsilon is the minimum smoothed-score improvement over the current
	// θ required to switch parameters. Zero selects DefaultEpsilon.
	Epsilon float64
	// History is the number of tuning rounds retained for the diagnostics
	// endpoint. Zero selects DefaultHistory.
	History int
}

// CandidateScore is one grid candidate's result in a tuning round.
type CandidateScore struct {
	// Theta is the candidate threshold.
	Theta float64 `json:"theta"`
	// CSR is the cost savings ratio the candidate's shadow cache earned
	// over this round's window alone.
	CSR float64 `json:"csr"`
	// Smoothed is the EMA of CSR across rounds.
	Smoothed float64 `json:"smoothed"`
	// TotalCSR is the shadow cache's cumulative cost savings ratio since
	// the tuner was created. Because shadows persist across rounds, this
	// equals a brute-force replay of every recorded sample under Theta.
	TotalCSR float64 `json:"total_csr"`
}

// Round summarizes one completed tuning round.
type Round struct {
	// Seq numbers rounds from 1 in completion order.
	Seq int64 `json:"seq"`
	// Samples is the number of references scored.
	Samples int `json:"samples"`
	// Unique is the number of distinct query IDs in the window.
	Unique int `json:"unique"`
	// Theta is the threshold published after the round.
	Theta float64 `json:"theta"`
	// Switched reports whether the round changed the threshold.
	Switched bool `json:"switched"`
	// Scores holds every candidate's result, in grid order.
	Scores []CandidateScore `json:"scores"`
}

// Tuner owns the adaptive admission parameter: it aggregates reference
// profiles, scores candidate thresholds against the recent trace with
// shadow caches, and atomically publishes the winner. One Tuner serves one
// live cache (all shards of it).
//
// Each grid candidate owns a persistent shadow cache that is fed every
// drained window in order, so shadows stay warm across rounds and a
// candidate's cumulative statistics equal a brute-force replay of the full
// recorded trace under that θ. A round's score is the cost savings the
// shadow earned over the window just drained (cost-weighted marginal CSR),
// smoothed across rounds with an EMA.
type Tuner struct {
	cfg Config
	th  *Threshold

	recorded atomic.Int64 // references recorded since the last drain
	tuning   atomic.Bool  // gate: at most one async round in flight

	mu       sync.Mutex // guards profiles, arms, rounds, seq
	profiles []*Profile
	arms     []*shadowArm // one per grid candidate, same order
	rounds   []Round      // most recent first
	seq      int64

	// pendMu guards pendingInval. Invalidate takes only this small lock
	// (never mu), so a coherence event arriving mid-round is queued in
	// O(1) instead of blocking behind the shadow replays.
	pendMu       sync.Mutex
	pendingInval []string
}

// shadowArm is one candidate threshold's persistent shadow cache plus its
// scoring state.
type shadowArm struct {
	theta float64
	cache *core.Cache
	// lastSaved/lastTotal snapshot the shadow's cost counters at the end
	// of the previous round; the delta against them is this round's
	// windowed score.
	lastSaved, lastTotal float64
	// score is the cross-round EMA of windowed CSR; seeded reports
	// whether it has seen a round yet.
	score  float64
	seeded bool
}

// New creates a tuner. The initial published threshold is the static
// LNC-A setting θ = 1.
func New(cfg Config) (*Tuner, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("admission: non-positive shadow capacity %d", cfg.Capacity)
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Window < minRoundSamples {
		// A window this small would drain and then be discarded by every
		// TuneOnce, pinning θ at 1 forever with no error anywhere.
		return nil, fmt.Errorf("admission: window %d below the %d-sample minimum", cfg.Window, minRoundSamples)
	}
	if cfg.Grid == nil {
		cfg.Grid = DefaultGrid()
	}
	hasOne := false
	for _, g := range cfg.Grid {
		if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
			return nil, fmt.Errorf("admission: grid candidate %g is not a positive finite threshold", g)
		}
		if g == 1 {
			hasOne = true
		}
	}
	if !hasOne {
		return nil, fmt.Errorf("admission: grid must contain the initial threshold 1")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	t := &Tuner{cfg: cfg, th: NewThreshold(1)}
	for _, theta := range cfg.Grid {
		shadow, err := core.New(core.Config{
			Capacity: cfg.Capacity,
			K:        cfg.K,
			Policy:   core.LNCRA,
			Admitter: NewStaticAdmitter(theta),
		})
		if err != nil {
			return nil, fmt.Errorf("admission: shadow cache for θ=%g: %w", theta, err)
		}
		t.arms = append(t.arms, &shadowArm{theta: theta, cache: shadow})
	}
	return t, nil
}

// Admitter returns the live admission hook bound to the tuner's published
// threshold. Install it as core.Config.Admitter; its parameter read is a
// single atomic load.
func (t *Tuner) Admitter() core.Admitter { return Admitter{th: t.th} }

// Threshold returns the currently published θ.
func (t *Tuner) Threshold() float64 { return t.th.Load() }

// Window returns the references-per-round window size.
func (t *Tuner) Window() int { return t.cfg.Window }

// Grid returns a copy of the candidate threshold grid.
func (t *Tuner) Grid() []float64 {
	out := make([]float64, len(t.cfg.Grid))
	copy(out, t.cfg.Grid)
	return out
}

// ArmScore is one grid candidate's live shadow-cache standing, read
// outside a tuning round (the /v1/admission arms section).
type ArmScore struct {
	// Theta is the candidate threshold.
	Theta float64 `json:"theta"`
	// Smoothed is the cross-round EMA of windowed CSR; meaningful only
	// once Seeded is true (at least one completed round).
	Smoothed float64 `json:"smoothed"`
	// Seeded reports whether the arm has been scored by a round yet.
	Seeded bool `json:"seeded"`
	// TotalCSR is the shadow cache's cumulative cost savings ratio over
	// every sample replayed since the tuner was created — a brute-force
	// replay of the recorded trace under Theta.
	TotalCSR float64 `json:"total_csr"`
	// References is the number of samples the shadow has replayed.
	References int64 `json:"references"`
}

// ArmScores snapshots every candidate threshold's shadow standing, in
// grid order. It takes the tuner mutex and so excludes a concurrent
// round; the snapshot is round-consistent.
func (t *Tuner) ArmScores() []ArmScore {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ArmScore, len(t.arms))
	for i, a := range t.arms {
		st := a.cache.Stats()
		out[i] = ArmScore{
			Theta:      a.theta,
			Smoothed:   a.score,
			Seeded:     a.seeded,
			TotalCSR:   st.CostSavingsRatio(),
			References: st.References,
		}
	}
	return out
}

// NewProfile registers and returns a new reference profile. Each producer
// (shard, or the simulator's single replay loop) owns one profile and
// records every reference it serves into it.
func (t *Tuner) NewProfile() *Profile {
	p := &Profile{t: t, samples: make([]Sample, 0, t.cfg.Window)}
	t.mu.Lock()
	t.profiles = append(t.profiles, p)
	t.mu.Unlock()
	return p
}

// noteRecorded counts one recorded reference and reports whether a full
// window is pending. The comparison is >=, not ==: if a trigger is
// swallowed because a round is already in flight, the counter passes the
// window size and every later reference keeps reporting the backlog until
// a drain resets it — an exact comparison would fire once, miss, and
// never tune again.
func (t *Tuner) noteRecorded() bool {
	return t.recorded.Add(1) >= int64(t.cfg.Window)
}

// snapshot drains every profile and returns the merged window in time
// order.
func (t *Tuner) snapshot() []Sample {
	t.mu.Lock()
	profiles := make([]*Profile, len(t.profiles))
	copy(profiles, t.profiles)
	t.mu.Unlock()
	var all []Sample
	for _, p := range profiles {
		all = append(all, p.drain()...)
	}
	t.recorded.Store(0)
	// Stable sort: samples from one profile stay in arrival order when
	// logical timestamps tie across profiles.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	return all
}

// feed replays one window through a shadow arm and returns the windowed
// cost savings ratio it earned over exactly those samples.
func (a *shadowArm) feed(samples []Sample) float64 {
	for i := range samples {
		s := &samples[i]
		a.cache.ReferenceCanonical(core.Request{
			QueryID:   s.ID,
			Time:      s.Time,
			Size:      s.Size,
			Cost:      s.Cost,
			Relations: s.Relations,
		}, s.Sig)
	}
	st := a.cache.Stats()
	dSaved, dTotal := st.CostSaved-a.lastSaved, st.CostTotal-a.lastTotal
	a.lastSaved, a.lastTotal = st.CostSaved, st.CostTotal
	if dTotal <= 0 {
		return 0
	}
	return dSaved / dTotal
}

// TuneOnce runs one tuning round synchronously: drain the profiles, feed
// the window through every candidate's persistent shadow cache, fold each
// windowed cost-savings score into the cross-round EMAs, and publish the
// best candidate if it beats the incumbent by at least Epsilon. It returns
// the round summary; ok is false when the window held too few samples to
// score.
//
// TuneOnce is safe for concurrent use with Record and with the published
// admitter; the simulator calls it inline for determinism, the serving
// layer from the TriggerAsync goroutine.
func (t *Tuner) TuneOnce() (round Round, ok bool) {
	samples := t.snapshot()
	if len(samples) < minRoundSamples {
		return Round{}, false
	}
	unique := make(map[string]struct{}, len(samples))
	for i := range samples {
		unique[samples[i].ID] = struct{}{}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyPendingInvalidations()
	current := t.th.Load()
	currentIdx, bestIdx := -1, -1
	windowCSR := make([]float64, len(t.arms))
	for i, a := range t.arms {
		csr := a.feed(samples)
		windowCSR[i] = csr
		if a.seeded {
			a.score = t.cfg.Alpha*csr + (1-t.cfg.Alpha)*a.score
		} else {
			a.score, a.seeded = csr, true
		}
		if a.theta == current {
			currentIdx = i
		}
		if bestIdx < 0 || a.score > t.arms[bestIdx].score {
			bestIdx = i
		}
	}

	next := current
	switched := false
	// Switch only on a clear smoothed win over the incumbent (hysteresis);
	// if the incumbent is somehow off the grid, adopt the best candidate
	// unconditionally.
	if currentIdx < 0 || t.arms[bestIdx].score > t.arms[currentIdx].score+t.cfg.Epsilon {
		next = t.arms[bestIdx].theta
		switched = next != current
		t.th.Store(next)
	}

	t.seq++
	round = Round{
		Seq:      t.seq,
		Samples:  len(samples),
		Unique:   len(unique),
		Theta:    next,
		Switched: switched,
		Scores:   make([]CandidateScore, len(t.arms)),
	}
	for i, a := range t.arms {
		round.Scores[i] = CandidateScore{
			Theta:    a.theta,
			CSR:      windowCSR[i],
			Smoothed: a.score,
			TotalCSR: a.cache.Stats().CostSavingsRatio(),
		}
	}
	t.rounds = append([]Round{round}, t.rounds...)
	if len(t.rounds) > t.cfg.History {
		t.rounds = t.rounds[:t.cfg.History]
	}
	return round, true
}

// TriggerAsync starts a tuning round in a background goroutine unless one
// is already in flight. The serving layer calls it when Record reports a
// full window, keeping shadow replays off the request path. The goroutine
// keeps running rounds while a full window is already pending, so traffic
// that filled a window during a long round does not have to wait for the
// next one to fill before being scored.
func (t *Tuner) TriggerAsync() {
	if !t.tuning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.tuning.Store(false)
		for {
			t.TuneOnce()
			if t.recorded.Load() < int64(t.cfg.Window) {
				return
			}
		}
	}()
}

// Invalidate propagates a coherence event to every candidate's shadow
// cache, so scores cannot credit hits on sets the live cache dropped. The
// sharded layer forwards its Invalidate calls here. The event is queued
// and applied at the next round boundary — an ordering skew bounded by
// one window, the same tolerance the profile buffering already has — so
// the caller never blocks behind an in-progress shadow replay.
func (t *Tuner) Invalidate(relations ...string) {
	t.pendMu.Lock()
	t.pendingInval = append(t.pendingInval, relations...)
	t.pendMu.Unlock()
}

// applyPendingInvalidations drains the queued coherence events into every
// shadow arm. Called with t.mu held, before a round feeds its window.
func (t *Tuner) applyPendingInvalidations() {
	t.pendMu.Lock()
	pending := t.pendingInval
	t.pendingInval = nil
	t.pendMu.Unlock()
	if len(pending) == 0 {
		return
	}
	for _, a := range t.arms {
		a.cache.Invalidate(pending...)
	}
}

// Rounds returns the retained tuning history, most recent first.
func (t *Tuner) Rounds() []Round {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Round, len(t.rounds))
	copy(out, t.rounds)
	return out
}
