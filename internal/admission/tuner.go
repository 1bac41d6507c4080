package admission

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/ghost"
)

// Default tuning parameters, chosen so tuning is cheap relative to the
// live traffic it follows (every outcome is replayed once per grid
// candidate).
const (
	// DefaultWindow is the number of references per tuning round.
	DefaultWindow = 2000
	// alpha is the EMA factor applied to per-candidate scores across
	// rounds (weight of the newest round).
	alpha = 0.5
	// epsilon is the minimum smoothed cost-savings improvement over the
	// incumbent θ required to switch. Hysteresis: without it, score noise
	// between near-equal candidates would churn the parameter.
	epsilon = 0.005
	// history is the number of tuning rounds kept for diagnostics.
	history = 64
	// MinWindow is the smallest Config.Window New accepts; callers that
	// derive a window (e.g. scaling by a sampling rate) clamp against it.
	MinWindow = 16
	// minRoundSamples is the smallest window the tuner will score; tiny
	// windows (e.g. a TuneOnce just after a round) carry no signal.
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
	// Window is the number of reference outcomes per tuning round; it
	// must be at least 16 (smaller windows carry no tuning signal and are
	// rejected). Zero selects DefaultWindow.
	Window int
	// Grid lists the candidate thresholds θ to score. It must contain the
	// initial threshold 1. Nil selects DefaultGrid.
	Grid []float64
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
	// equals a brute-force replay of every outcome under Theta.
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

// Tuner owns the adaptive admission parameter: it replays the live
// reference stream through one shadow cache per candidate threshold,
// scores the candidates by the cost savings they earn, and atomically
// publishes the winner. One Tuner serves one live cache (all shards of
// it).
//
// The Tuner is a core.EventSink: its embedded ghost.Feed passes every
// reference outcome (rate 1) and every Invalidate to apply, which feeds
// each shadow in stream order. Shadows persist across rounds, so a
// candidate's cumulative statistics equal a brute-force replay of the
// stream under that θ. The Window-th outcome of a window closes a round
// inline: each shadow's cost savings over the window (cost-weighted
// marginal CSR) is folded into a cross-round EMA, and the best candidate
// is published if it clears the hysteresis margin.
type Tuner struct {
	*ghost.Feed

	cfg Config
	th  *Threshold

	mu     sync.Mutex   // guards arms, window, rounds, seq
	arms   []*shadowArm // one per grid candidate, same order
	window []Sample     // the current window's outcomes, in stream order
	rounds []Round      // most recent first
	seq    int64
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
		// A window this small carries no tuning signal: every round would
		// publish θ from noise.
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
	t := &Tuner{cfg: cfg, th: NewThreshold(1), window: make([]Sample, 0, cfg.Window)}
	t.Feed = ghost.NewFeed(1, t.apply)
	for _, theta := range cfg.Grid {
		scfg := core.Config{K: cfg.K}.Ghost(cfg.Capacity, core.LNCRA)
		scfg.Admitter = NewStaticAdmitter(theta)
		shadow, err := core.New(scfg)
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
	// replay of the stream under Theta.
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

// apply is the feed's consumer: it replays one Op into every shadow, in
// stream order. Restores are skipped: the shadows restart cold (state.go).
func (t *Tuner) apply(o ghost.Op) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch o.Kind {
	case ghost.OpRef:
		t.observe(Sample{ID: o.ID, Sig: o.Sig, Size: o.Size, Cost: o.Cost, Time: o.Time, Relations: o.Relations})
	case ghost.OpInvalidate:
		// Coherence reaches the shadows where it sits in the stream, so
		// no score credits a hit on a set the live cache had dropped.
		for _, a := range t.arms {
			a.cache.Invalidate(o.Relations...)
		}
	case ghost.OpRestore:
	}
}

// observe replays one sample into every shadow and closes the round when
// the window fills. Callers hold t.mu.
func (t *Tuner) observe(s Sample) {
	req := core.Request{QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost, Relations: s.Relations}
	for _, a := range t.arms {
		a.cache.ReferenceCanonical(req, s.Sig)
	}
	t.window = append(t.window, s)
	if len(t.window) >= t.cfg.Window {
		t.round()
	}
}

// windowCSR returns the cost savings ratio the arm earned since the
// previous round.
func (a *shadowArm) windowCSR() float64 {
	st := a.cache.Stats()
	dSaved, dTotal := st.CostSaved-a.lastSaved, st.CostTotal-a.lastTotal
	a.lastSaved, a.lastTotal = st.CostSaved, st.CostTotal
	if dTotal <= 0 {
		return 0
	}
	return dSaved / dTotal
}

// TuneOnce closes the current window early: it drains the feed, then
// scores the outcomes seen since the last round exactly as a full window
// would be. ok is false, and the window stays open, when it holds too few
// outcomes to score.
func (t *Tuner) TuneOnce() (round Round, ok bool) {
	t.Drain()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.window) < minRoundSamples {
		return Round{}, false
	}
	return t.round(), true
}

// round scores the window: fold each shadow's windowed cost savings into
// its EMA, and publish the best candidate if it beats the incumbent by at
// least epsilon. Callers hold t.mu.
func (t *Tuner) round() Round {
	unique := make(map[string]struct{}, len(t.window))
	for i := range t.window {
		unique[t.window[i].ID] = struct{}{}
	}
	current := t.th.Load()
	currentIdx, bestIdx := -1, -1
	windowCSR := make([]float64, len(t.arms))
	for i, a := range t.arms {
		csr := a.windowCSR()
		windowCSR[i] = csr
		if a.seeded {
			a.score = alpha*csr + (1-alpha)*a.score
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
	if currentIdx < 0 || t.arms[bestIdx].score > t.arms[currentIdx].score+epsilon {
		next = t.arms[bestIdx].theta
		switched = next != current
		t.th.Store(next)
	}

	t.seq++
	round := Round{
		Seq:      t.seq,
		Samples:  len(t.window),
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
	if len(t.rounds) > history {
		t.rounds = t.rounds[:history]
	}
	t.window = t.window[:0]
	return round
}

// Rounds returns the retained tuning history, most recent first.
func (t *Tuner) Rounds() []Round {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Round, len(t.rounds))
	copy(out, t.rounds)
	return out
}
