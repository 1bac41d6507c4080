// Package whatif runs a ghost-cache matrix off the live event stream: a
// grid of counterfactual cache configurations (capacity ladder × policy
// set) continuously re-simulated in-process, so the running system can
// answer "would 2× memory, a different θ, or plain LRU change my CSR?"
// without taking the node offline and replaying traces.
//
// The matrix is an event-spine consumer (core.EventSink): every reference
// outcome the live cache emits — hit, derived hit, admitted or rejected
// miss, external miss — is reconstructed into the canonical request that
// produced it and replayed into each ghost. Ghosts are ordinary
// core.Cache instances built from the live Config with observers stripped
// (the same reuse internal/admission's θ shadows rely on), so ghost
// decisions are exactly the decisions the real cache would have made
// under that configuration.
//
// To keep the ghosts affordable, the matrix replays a deterministic
// spatially-sampled slice of the stream: a reference is sampled iff a
// mix of its signature hash lands in residue class 0 modulo the sampling
// rate R, and every ghost capacity is scaled by 1/R (the SHARDS
// construction: a 1/R sample against a 1/R cache preserves the miss-ratio
// curve). Rate 1 replays everything at full capacity, which is the
// fidelity baseline the tests pin bit-exactly.
//
// The filter, the sampling and the FIFO to the background worker are the
// embedded ghost.Feed, the same feed the admission tuner's θ shadows run
// on; the matrix supplies only what a sampled Op does to its cells.
package whatif

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/ghost"
)

// Defaults for Config fields left zero.
const (
	// DefaultSampleRate replays 1 in 8 references into the ghosts.
	DefaultSampleRate = 8
	// DefaultAdvisorMargin is the CSR improvement a cheaper or different
	// configuration must show before the advisor recommends it.
	DefaultAdvisorMargin = 0.01
)

// DefaultScales is the capacity ladder: each ghost models the live
// capacity multiplied by one of these factors.
func DefaultScales() []float64 { return []float64{0.25, 0.5, 1, 2, 4} }

// Policy is one policy axis entry of the ghost matrix.
type Policy struct {
	// Name is the stable label used in reports, Prometheus labels and
	// CLI flags.
	Name string
	// Kind is the core replacement/admission policy the ghost runs.
	Kind core.PolicyKind
	// Adaptive attaches a per-ghost admission tuner (the lnc-ra-adaptive
	// configuration): the ghost's θ is tuned from the same sampled slice
	// it replays.
	Adaptive bool
}

// DefaultPolicies is the paper's comparative line-up: both WATCHMAN
// variants against the LRU and LRU-K baselines.
func DefaultPolicies() []Policy {
	return []Policy{
		{Name: "lnc-ra", Kind: core.LNCRA},
		{Name: "lnc-ra-adaptive", Kind: core.LNCRA, Adaptive: true},
		{Name: "lru", Kind: core.LRU},
		{Name: "lru-k", Kind: core.LRUK},
	}
}

// Config configures a ghost matrix.
type Config struct {
	// Base is the live cache's configuration. Capacity must be finite and
	// positive; ghost configurations are derived from it with observers
	// stripped. Required.
	Base core.Config
	// SampleRate R replays 1 in R references (by signature hash) into
	// ghosts whose capacities are scaled by 1/R. Zero selects
	// DefaultSampleRate; 1 replays everything at full scale.
	SampleRate int
	// TuneWindow is the tuning-round window of adaptive ghosts, counted
	// in sampled references. Zero scales the admission default by 1/R so
	// adaptive ghosts re-tune at the same wall-clock cadence as a live
	// tuner would (floor 16).
	TuneWindow int
}

// cell is one ghost configuration: a (scale, policy) grid point.
type cell struct {
	policy  Policy
	scale   float64
	modeled int64 // capacity this ghost models (scale × live capacity)
	ghost   int64 // actual ghost capacity (modeled / R)

	cache *core.Cache
	tuner *admission.Tuner // adaptive cells only
}

// Matrix is the ghost-cache grid. It is a core.EventSink through its
// embedded feed; attach it to the live cache's sink chain (the sharded
// layer does this when shard.Config.WhatIf is set, and starts the feed's
// worker).
type Matrix struct {
	*ghost.Feed

	cfg Config
	// baseline names the policy the advisor measures against; its
	// scale-1 cell models the live configuration.
	baseline string

	mu sync.Mutex // guards cells (the feed applies, Report reads)
	// cells is ordered policy-major, then by ascending scale: the order
	// reports, curves and scrapes list them in.
	cells []*cell
}

// New builds the matrix with an inline feed: until something Starts it,
// each sampled event reaches the ghosts inside Emit.
func New(cfg Config) (*Matrix, error) {
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	if cfg.SampleRate < 1 {
		return nil, fmt.Errorf("whatif: sample rate %d < 1", cfg.SampleRate)
	}
	if cfg.Base.Capacity <= 0 || cfg.Base.Capacity == core.Unlimited {
		return nil, fmt.Errorf("whatif: base capacity must be finite and positive")
	}
	if cfg.TuneWindow == 0 {
		cfg.TuneWindow = max(16, admission.DefaultWindow/cfg.SampleRate)
	}

	policies := DefaultPolicies()
	m := &Matrix{cfg: cfg, baseline: baselinePolicy(cfg.Base.Policy, policies)}
	m.Feed = ghost.NewFeed(cfg.SampleRate, m.apply)
	for _, pol := range policies {
		for _, scale := range DefaultScales() {
			modeled := int64(scale * float64(cfg.Base.Capacity))
			ghostBytes := int64(scale * float64(cfg.Base.Capacity) / float64(cfg.SampleRate))
			if ghostBytes <= 0 {
				return nil, fmt.Errorf("whatif: scale %v at sample rate %d leaves no ghost capacity", scale, cfg.SampleRate)
			}
			c := &cell{policy: pol, scale: scale, modeled: modeled, ghost: ghostBytes}
			gcfg := cfg.Base.Ghost(ghostBytes, pol.Kind)
			if pol.Adaptive {
				tuner, err := admission.New(admission.Config{
					Capacity: ghostBytes,
					K:        gcfg.K,
					Window:   cfg.TuneWindow,
				})
				if err != nil {
					return nil, fmt.Errorf("whatif: cell %s/%vx: %w", pol.Name, scale, err)
				}
				// The tuner learns from its own ghost's outcomes, inline.
				c.tuner = tuner
				gcfg.Admitter = tuner.Admitter()
				gcfg.Sink = tuner
			}
			ghostCache, err := core.New(gcfg)
			if err != nil {
				return nil, fmt.Errorf("whatif: cell %s/%vx: %w", pol.Name, scale, err)
			}
			c.cache = ghostCache
			m.cells = append(m.cells, c)
		}
	}
	return m, nil
}

// baselinePolicy picks the default advisor baseline: the first
// non-adaptive policy matching the live Kind, else the first matching
// policy, else the first policy.
func baselinePolicy(kind core.PolicyKind, policies []Policy) string {
	name := policies[0].Name
	matched := false
	for _, p := range policies {
		if p.Kind != kind {
			continue
		}
		if !p.Adaptive {
			return p.Name
		}
		if !matched {
			name, matched = p.Name, true
		}
	}
	return name
}

// SampleRate returns the configured 1-in-R sampling rate.
func (m *Matrix) SampleRate() int { return m.cfg.SampleRate }

// CellCount returns the number of ghost configurations.
func (m *Matrix) CellCount() int { return len(m.cells) }

// apply replays one Op into every ghost, in canonical form (the event
// carries the compressed ID; recompressing would corrupt the signature
// space). A restore warm-inserts a snapshot-restored set without charging
// a reference, mirroring the live restore path; a ghost without room
// skips it — a smaller counterfactual cache would not have held the whole
// image either.
func (m *Matrix) apply(o ghost.Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	req := o.Request()
	for _, c := range m.cells {
		switch o.Kind {
		case ghost.OpRef:
			c.cache.ReferenceCanonical(req, o.Sig)
		case ghost.OpRestore:
			c.cache.WarmInsert(req, o.Sig)
		case ghost.OpInvalidate:
			c.cache.Invalidate(o.Relations...)
			if c.tuner != nil {
				c.tuner.Invalidate(o.Relations...)
			}
		}
	}
}

// formatScale renders a capacity-scale label ("0.25x", "1x", "4x").
func formatScale(scale float64) string {
	return strconv.FormatFloat(scale, 'g', -1, 64) + "x"
}
