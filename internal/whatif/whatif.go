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
// Hot-path contract: Emit runs under the live cache's execution context
// (the shard mutex). Unsampled references cost two branches, a striped
// counter increment and a hash multiply — no allocation, no lock.
// Sampled references are copied into a bounded FIFO consumed by one
// background worker; in serving mode a full buffer sheds the reference
// (counted, never blocking), while Blocking mode (sim replays) applies
// backpressure so validation loses nothing.
package whatif

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/core"
)

// Defaults for Config fields left zero.
const (
	// DefaultSampleRate replays 1 in 8 references into the ghosts.
	DefaultSampleRate = 8
	// DefaultBuffer is the depth of the sampled-reference FIFO.
	DefaultBuffer = 4096
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
	// Scales is the capacity ladder as multiples of Base.Capacity. Nil
	// selects DefaultScales.
	Scales []float64
	// Policies is the policy axis. Nil selects DefaultPolicies.
	Policies []Policy
	// Buffer is the sampled-reference FIFO depth. Zero selects
	// DefaultBuffer.
	Buffer int
	// Blocking makes Emit apply backpressure instead of shedding when the
	// FIFO is full. Only for offline replays (sim.ReplayWhatIf); a
	// serving cache must never block its shard mutex on the ghosts.
	Blocking bool
	// TuneWindow is the tuning-round window of adaptive ghosts, counted
	// in sampled references. Zero scales the admission default by 1/R so
	// adaptive ghosts re-tune at the same wall-clock cadence as a live
	// tuner would (floor 16).
	TuneWindow int
	// Baseline names the policy the advisor measures against; its
	// scale-1 cell models the live configuration. Empty selects the
	// policy whose Kind matches Base.Policy (first match, non-adaptive
	// preferred), else the first policy.
	Baseline string
}

// opKind discriminates worker queue entries.
type opKind uint8

const (
	opRef opKind = iota
	opRestore
	opInval
	opBarrier
	opStop
)

// op is one queued unit of ghost work. It is a value struct so enqueueing
// does not allocate; relations are the only pointer payload and are
// copied at enqueue time (events must not be retained past Emit).
type op struct {
	kind      opKind
	id        string
	sig       uint64
	time      float64
	class     int
	size      int64
	cost      float64
	relations []string
	done      chan struct{}
}

// stripeCount must be a power of two; stripes are padded to avoid false
// sharing between shards counting concurrently.
const stripeCount = 16

type stripedCounter struct {
	stripes [stripeCount]struct {
		v atomic.Int64
		_ [56]byte
	}
}

func (c *stripedCounter) add(stripe uint64) { c.stripes[stripe&(stripeCount-1)].v.Add(1) }

func (c *stripedCounter) load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// cell is one ghost configuration: a (scale, policy) grid point.
type cell struct {
	policy  Policy
	scale   float64
	modeled int64 // capacity this ghost models (scale × live capacity)
	ghost   int64 // actual ghost capacity (modeled / R)

	cache   *core.Cache
	tuner   *admission.Tuner   // adaptive cells only
	profile *admission.Profile // adaptive cells only
	refs    int64
}

// Matrix is the ghost-cache grid. It implements core.EventSink; attach it
// to the live cache's sink chain (the sharded layer does this when
// shard.Config.WhatIf is set).
type Matrix struct {
	cfg  Config
	rate uint64

	refsSeen    stripedCounter // every reference outcome observed
	refsSampled atomic.Int64   // passed the hash filter
	refsShed    atomic.Int64   // sampled but dropped on a full FIFO

	ops     chan op
	stopped chan struct{} // closed when the worker exits
	closed  atomic.Bool

	mu    sync.Mutex // guards cells (worker applies, Report reads)
	cells []*cell
}

// New builds the matrix and starts its background worker. Callers must
// Close it to stop the worker.
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
	if cfg.Scales == nil {
		cfg.Scales = DefaultScales()
	}
	if cfg.Policies == nil {
		cfg.Policies = DefaultPolicies()
	}
	if cfg.Buffer == 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.Buffer < 1 {
		return nil, fmt.Errorf("whatif: buffer %d < 1", cfg.Buffer)
	}
	if cfg.TuneWindow == 0 {
		cfg.TuneWindow = max(16, admission.DefaultWindow/cfg.SampleRate)
	}
	if cfg.Baseline == "" {
		cfg.Baseline = baselinePolicy(cfg.Base.Policy, cfg.Policies)
	} else if _, err := findPolicy(cfg.Baseline, cfg.Policies); err != nil {
		return nil, err
	}

	m := &Matrix{
		cfg:     cfg,
		rate:    uint64(cfg.SampleRate),
		ops:     make(chan op, cfg.Buffer),
		stopped: make(chan struct{}),
	}
	for _, scale := range cfg.Scales {
		if scale <= 0 {
			return nil, fmt.Errorf("whatif: capacity scale %v must be positive", scale)
		}
		modeled := int64(scale * float64(cfg.Base.Capacity))
		ghost := int64(scale * float64(cfg.Base.Capacity) / float64(cfg.SampleRate))
		if ghost <= 0 {
			return nil, fmt.Errorf("whatif: scale %v at sample rate %d leaves no ghost capacity", scale, cfg.SampleRate)
		}
		for _, pol := range cfg.Policies {
			c := &cell{policy: pol, scale: scale, modeled: modeled, ghost: ghost}
			gcfg := cfg.Base.Ghost(ghost, pol.Kind)
			if pol.Adaptive {
				tuner, err := admission.New(admission.Config{
					Capacity: ghost,
					K:        gcfg.K,
					Window:   cfg.TuneWindow,
				})
				if err != nil {
					return nil, fmt.Errorf("whatif: cell %s/%vx: %w", pol.Name, scale, err)
				}
				c.tuner = tuner
				c.profile = tuner.NewProfile()
				gcfg.Admitter = tuner.Admitter()
			}
			ghostCache, err := core.New(gcfg)
			if err != nil {
				return nil, fmt.Errorf("whatif: cell %s/%vx: %w", pol.Name, scale, err)
			}
			c.cache = ghostCache
			m.cells = append(m.cells, c)
		}
	}
	go m.worker()
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

func findPolicy(name string, policies []Policy) (Policy, error) {
	for _, p := range policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("whatif: baseline %q is not in the policy set", name)
}

// SampleRate returns the configured 1-in-R sampling rate.
func (m *Matrix) SampleRate() int { return m.cfg.SampleRate }

// CellCount returns the number of ghost configurations.
func (m *Matrix) CellCount() int { return len(m.cells) }

// sampled reports whether a signature belongs to the replayed slice. The
// multiply mixes the hash and the high bits are taken because the sharded
// layer routes on the low bits — sampling on those would starve or flood
// individual shards' slices.
func (m *Matrix) sampled(sig uint64) bool {
	return m.rate == 1 || (sig*0x9E3779B97F4A7C15)>>33%m.rate == 0
}

// Emit consumes one live-cache event. It runs under the emitting shard's
// lock: the unsampled path must not allocate, lock or block.
//
//watchman:hotpath
func (m *Matrix) Emit(ev core.Event) {
	switch ev.Kind {
	case core.EventHit, core.EventHitDerived, core.EventExternalMiss:
		// Reference outcomes.
	case core.EventMissAdmitted, core.EventMissRejected:
		if ev.Derived {
			// Derived-set admission bookkeeping; the reference itself was
			// already announced as EventHitDerived.
			return
		}
	case core.EventRestore:
		m.emitRestore(ev)
		return
	default:
		// Evictions and invalidations are ghost-local decisions: each
		// ghost evicts by its own policy, and coherence arrives via
		// Invalidate exactly as it reaches the admission shadows.
		return
	}
	sig := ev.Sig()
	m.refsSeen.add(sig)
	if !m.sampled(sig) || ev.Size <= 0 {
		// Size 0 means there is no retrieved set to cache (failed or
		// account-only executions); nothing to replay.
		return
	}
	m.refsSampled.Add(1)
	if m.closed.Load() {
		m.refsShed.Add(1)
		return
	}
	o := op{
		kind:  opRef,
		id:    ev.ID,
		sig:   sig,
		time:  ev.Time,
		class: ev.Class,
		size:  ev.Size,
		cost:  ev.Cost,
	}
	if len(ev.Relations) > 0 {
		// Events must not be retained past Emit; the worker outlives it.
		//lint:ignore hotpathalloc sampled-path copy; the unsampled fast path returned above
		o.relations = append([]string(nil), ev.Relations...)
	}
	if m.cfg.Blocking {
		select {
		case m.ops <- o:
		case <-m.stopped:
			m.refsShed.Add(1)
		}
		return
	}
	select {
	case m.ops <- o:
	default:
		m.refsShed.Add(1)
	}
}

// emitRestore queues a snapshot-restored resident set for warm insertion
// into the sampled ghosts. Restores happen at boot against an empty
// queue, so a blocking send is safe and loses nothing.
func (m *Matrix) emitRestore(ev core.Event) {
	sig := ev.Sig()
	if !m.sampled(sig) || ev.Size <= 0 || m.closed.Load() {
		return
	}
	o := op{
		kind:  opRestore,
		id:    ev.ID,
		sig:   sig,
		time:  ev.Time,
		class: ev.Class,
		size:  ev.Size,
		cost:  ev.Cost,
	}
	if len(ev.Relations) > 0 {
		o.relations = append([]string(nil), ev.Relations...)
	}
	select {
	case m.ops <- o:
	case <-m.stopped:
	}
}

// Invalidate forwards a coherence event to every ghost. The sharded
// layer calls this once per Invalidate, after the live caches and the
// admission tuner — the same path, so ghosts and θ shadows see identical
// coherence.
func (m *Matrix) Invalidate(relations ...string) {
	if len(relations) == 0 || m.closed.Load() {
		return
	}
	o := op{kind: opInval, relations: append([]string(nil), relations...)}
	select {
	case m.ops <- o:
	case <-m.stopped:
	}
}

// Drain blocks until every operation enqueued before the call has been
// applied to the ghosts. After Close it returns immediately: the worker
// drained the queue on shutdown.
func (m *Matrix) Drain() {
	o := op{kind: opBarrier, done: make(chan struct{})}
	select {
	case m.ops <- o:
	case <-m.stopped:
		return
	}
	select {
	case <-o.done:
	case <-m.stopped:
	}
}

// Close stops the worker after it applies everything already queued.
// Events emitted after Close are counted seen (and shed if sampled) but
// not replayed. Close is idempotent.
func (m *Matrix) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	select {
	case m.ops <- op{kind: opStop}:
		<-m.stopped
	case <-m.stopped:
	}
}

// worker is the single consumer of the op FIFO. All ghost mutation
// happens here, serialized, under m.mu (Report takes the same lock).
func (m *Matrix) worker() {
	defer close(m.stopped)
	for o := range m.ops {
		switch o.kind {
		case opBarrier:
			close(o.done)
			continue
		case opStop:
			return
		case opRef, opRestore, opInval:
			// Ghost mutations; handled under the lock below.
		}
		m.mu.Lock()
		switch o.kind {
		case opRef:
			m.applyRef(o)
		case opRestore:
			m.applyRestore(o)
		case opInval:
			for _, c := range m.cells {
				c.cache.Invalidate(o.relations...)
				if c.tuner != nil {
					c.tuner.Invalidate(o.relations...)
				}
			}
		case opBarrier, opStop:
			// Control ops; consumed by the pre-lock dispatch above.
		}
		m.mu.Unlock()
	}
}

// applyRef replays one sampled reference into every ghost, in canonical
// form (the event carries the compressed ID; recompressing would corrupt
// the signature space).
func (m *Matrix) applyRef(o op) {
	req := core.Request{
		QueryID:   o.id,
		Time:      o.time,
		Class:     o.class,
		Size:      o.size,
		Cost:      o.cost,
		Relations: o.relations,
	}
	for _, c := range m.cells {
		c.cache.ReferenceCanonical(req, o.sig)
		c.refs++
		if c.profile == nil {
			continue
		}
		full := c.profile.Record(admission.Sample{
			ID: o.id, Sig: o.sig, Size: o.size, Cost: o.cost,
			Time: o.time, Relations: o.relations,
		})
		if full {
			// Synchronous: the worker is the only producer for this
			// tuner, so tuning in-line keeps the cell deterministic.
			c.tuner.TuneOnce()
		}
	}
}

// applyRestore warm-inserts a snapshot-restored set. Restores are not
// references: they touch no stats counters, mirroring the live restore
// path. A ghost without room skips the set — a smaller counterfactual
// cache would not have held the whole image either.
func (m *Matrix) applyRestore(o op) {
	req := core.Request{
		QueryID:   o.id,
		Time:      o.time,
		Class:     o.class,
		Size:      o.size,
		Cost:      o.cost,
		Relations: o.relations,
	}
	for _, c := range m.cells {
		c.cache.WarmInsert(req, o.sig)
	}
}

// formatScale renders a capacity-scale label ("0.25x", "1x", "4x").
func formatScale(scale float64) string {
	return strconv.FormatFloat(scale, 'g', -1, 64) + "x"
}

// sortedCells returns the cells ordered by (policy set order, ascending
// scale) for stable report output.
func (m *Matrix) sortedCells() []*cell {
	order := make(map[string]int, len(m.cfg.Policies))
	for i, p := range m.cfg.Policies {
		order[p.Name] = i
	}
	out := append([]*cell(nil), m.cells...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].policy.Name != out[j].policy.Name {
			return order[out[i].policy.Name] < order[out[j].policy.Name]
		}
		return out[i].scale < out[j].scale
	})
	return out
}
