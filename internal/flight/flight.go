// Package flight is the flight recorder: bounded, lock-cheap ring buffers
// of per-reference lifecycle spans and admission/eviction decision
// records, captured from the core's tracer and event hooks (see
// core.SpanSink and core.EventSink). Each shard of a concurrent cache
// writes into its own rings — writes are already serialized by the shard
// mutex, so the per-ring mutex only ever contends with HTTP readers — and
// record slots are preallocated, keeping the traced hot path
// allocation-free. Spans are sampled one-in-N (always capturing spans
// slower than a threshold, the slow-reference log); decision records are
// captured unconditionally, since admissions, rejections and evictions
// are orders of magnitude rarer than hits. Every span, sampled or not,
// feeds the registry's per-stage latency histograms, so the stage profile
// covers all traffic even at high sampling ratios.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Default configuration values, and the fixed ring sizes.
const (
	// DefaultSampleEvery is the default span sampling ratio: one in N.
	DefaultSampleEvery = 64
	// DefaultSlowThreshold is the default always-capture threshold for
	// slow spans.
	DefaultSlowThreshold = 10 * time.Millisecond
	// spanBuffer is the per-shard span ring capacity.
	spanBuffer = 256
	// decisionBuffer is the per-shard decision ring capacity.
	decisionBuffer = 512
)

// Config parameterizes a Recorder. The zero value selects every default.
type Config struct {
	// SampleEvery captures one span in N (plus every slow span). 1 records
	// every span; values below 1 select DefaultSampleEvery.
	SampleEvery int
	// SlowThreshold always-captures spans whose total duration meets or
	// exceeds it, regardless of sampling. Zero selects
	// DefaultSlowThreshold; negative disables the slow log.
	SlowThreshold time.Duration
	// Registry, if non-nil, receives per-stage latency observations from
	// every span (sampled or not) via ObserveStage.
	Registry *telemetry.Registry
}

// Decision is the audit record of one admission or eviction ruling: the
// outcome and every input the gate evaluated, so an operator (or the
// explain endpoint) can reproduce the inequality after the fact.
type Decision struct {
	// Seq orders decisions across shards (higher = later).
	Seq uint64 `json:"seq"`
	// Kind is the outcome ("miss_admitted", "miss_rejected", "evict").
	Kind string `json:"kind"`
	// ID is the compressed query ID the decision ruled on.
	ID string `json:"id"`
	// Time is the logical time of the decision.
	Time float64 `json:"time"`
	// Class is the workload class of the triggering request.
	Class int `json:"class"`
	// Size and Cost are the candidate set's size and cost.
	Size int64   `json:"size"`
	Cost float64 `json:"cost"`
	// Decided reports whether an admitter ruled on a profit comparison;
	// false means free-space admission or a rejection without comparison.
	Decided bool `json:"decided"`
	// HasHistory reports whether the comparison used sliding-window
	// estimates (true) or e-profit estimates (false).
	HasHistory bool `json:"has_history"`
	// Profit, Bar and Theta are the comparison's inputs: admit ⇔
	// Profit > Theta·Bar. On evictions Profit is the victim's own profit.
	Profit float64 `json:"profit"`
	Bar    float64 `json:"bar"`
	Theta  float64 `json:"theta"`
	// Lambda is the entry's reference-rate estimate λ at decision time,
	// and RefDepth its reference-window depth.
	Lambda   float64 `json:"lambda"`
	RefDepth int     `json:"ref_depth"`
	// Victims is the size of the victim set evicted (admissions) or
	// spared (rejections).
	Victims int `json:"victims"`
	// Rank is, on evictions, the victim's position in its batch.
	Rank int `json:"rank"`
	// Derived marks decisions about derived sets admitted at residual
	// cost.
	Derived bool `json:"derived"`
}

// shardRecorder holds one shard's rings. It implements both
// core.SpanSink (span capture) and core.EventSink (decision capture);
// writes arrive serialized by the owning shard's mutex, so mu only
// contends with readers.
type shardRecorder struct {
	rec *Recorder

	mu        sync.Mutex
	spans     []core.Span // preallocated ring
	spanNext  int         // next write slot
	spanCount int         // filled slots, ≤ len(spans)
	decs      []Decision
	decNext   int
	decCount  int

	// seen counts spans observed by this shard for sampling; it is only
	// written under the shard's serialization but read cheaply.
	seen atomic.Uint64
}

// ObserveSpan implements core.SpanSink: feed the stage histograms, then
// capture the span if sampling (or the slow log) selects it.
func (s *shardRecorder) ObserveSpan(sp core.Span) {
	if reg := s.rec.registry; reg != nil {
		for st := core.Stage(0); st < core.NumStages; st++ {
			if ns := sp.Stages[st]; ns > 0 {
				reg.ObserveStage(st, float64(ns)/1e9)
			}
		}
	}
	n := s.seen.Add(1)
	slow := s.rec.slowNanos > 0 && sp.Total >= s.rec.slowNanos
	if !slow && n%uint64(s.rec.sampleEvery) != 0 {
		return
	}
	s.mu.Lock()
	s.spans[s.spanNext] = sp
	s.spanNext = (s.spanNext + 1) % len(s.spans)
	if s.spanCount < len(s.spans) {
		s.spanCount++
	}
	s.mu.Unlock()
}

// Emit implements core.EventSink: admission and eviction outcomes become
// decision records; other lifecycle events are ignored.
func (s *shardRecorder) Emit(ev core.Event) {
	switch ev.Kind {
	case core.EventMissAdmitted, core.EventMissRejected, core.EventEvict:
	default:
		return
	}
	d := Decision{
		Seq:        s.rec.seq.Add(1),
		Kind:       ev.Kind.String(),
		ID:         ev.ID,
		Time:       ev.Time,
		Class:      ev.Class,
		Size:       ev.Size,
		Cost:       ev.Cost,
		Decided:    ev.Decided,
		HasHistory: ev.HasHistory,
		Profit:     ev.Profit,
		Bar:        ev.Bar,
		Theta:      ev.Theta,
		Victims:    len(ev.Victims),
		Rank:       ev.Rank,
		Derived:    ev.Derived,
	}
	if ev.Entry != nil {
		d.Lambda = ev.Entry.Rate(ev.Time)
		d.RefDepth = ev.Entry.Refs()
	}
	s.mu.Lock()
	s.decs[s.decNext] = d
	s.decNext = (s.decNext + 1) % len(s.decs)
	if s.decCount < len(s.decs) {
		s.decCount++
	}
	s.mu.Unlock()
}

// Recorder is the process-wide flight recorder: it hands out per-shard
// tracer and sink hooks and merges their rings for readers. All methods
// are safe for concurrent use.
type Recorder struct {
	sampleEvery int
	slowNanos   int64
	registry    *telemetry.Registry

	// seq orders decision records across shards.
	seq atomic.Uint64

	// shards is the atomically published shard-recorder table, grown under
	// mu by shard — the same publication pattern as telemetry.Registry.
	shards atomic.Pointer[[]*shardRecorder]
	mu     sync.Mutex
}

// New creates a recorder from cfg, applying defaults for zero fields.
func New(cfg Config) *Recorder {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	r := &Recorder{
		sampleEvery: cfg.SampleEvery,
		registry:    cfg.Registry,
	}
	if cfg.SlowThreshold > 0 {
		r.slowNanos = int64(cfg.SlowThreshold)
	}
	return r
}

// shard returns (growing on demand) the recorder for a shard index.
func (r *Recorder) shard(i int) *shardRecorder {
	if i < 0 {
		i = 0
	}
	if t := r.shards.Load(); t != nil && i < len(*t) {
		return (*t)[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*shardRecorder
	if t := r.shards.Load(); t != nil {
		cur = *t
		if i < len(cur) {
			return cur[i]
		}
	}
	grown := make([]*shardRecorder, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = &shardRecorder{
			rec:   r,
			spans: make([]core.Span, spanBuffer),
			decs:  make([]Decision, decisionBuffer),
		}
	}
	r.shards.Store(&grown)
	return grown[i]
}

// ShardTracer returns the span sink for one shard, to be wired as that
// shard's core.Config.Tracer. Shard indices should be dense from zero.
func (r *Recorder) ShardTracer(shard int) core.SpanSink { return r.shard(shard) }

// ShardSink returns the decision sink for one shard, to be composed into
// that shard's event stream with core.MultiSink.
func (r *Recorder) ShardSink(shard int) core.EventSink { return r.shard(shard) }

// all snapshots the current shard table.
func (r *Recorder) all() []*shardRecorder {
	if t := r.shards.Load(); t != nil {
		return *t
	}
	return nil
}

// collectSpans copies every captured span out of the rings.
func (r *Recorder) collectSpans() []core.Span {
	var out []core.Span
	for _, s := range r.all() {
		s.mu.Lock()
		start := s.spanNext - s.spanCount
		if start < 0 {
			start += len(s.spans)
		}
		for i := 0; i < s.spanCount; i++ {
			out = append(out, s.spans[(start+i)%len(s.spans)])
		}
		s.mu.Unlock()
	}
	return out
}

// Spans returns up to limit captured spans, newest first (by monotonic
// start time). limit ≤ 0 returns all captured spans.
func (r *Recorder) Spans(limit int) []core.Span {
	out := r.collectSpans()
	sort.Slice(out, func(i, j int) bool { return out[i].Start > out[j].Start })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Slowest returns up to limit captured spans ordered by total duration,
// slowest first — the slow-reference log. limit ≤ 0 returns all.
func (r *Recorder) Slowest(limit int) []core.Span {
	out := r.collectSpans()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// LastDecision returns the most recent admission/eviction decision
// recorded for a compressed query ID, if one is still in the rings.
func (r *Recorder) LastDecision(id string) (Decision, bool) {
	var best Decision
	found := false
	for _, s := range r.all() {
		s.mu.Lock()
		for i := 0; i < s.decCount; i++ {
			d := &s.decs[i]
			if d.ID == id && (!found || d.Seq > best.Seq) {
				best, found = *d, true
			}
		}
		s.mu.Unlock()
	}
	return best, found
}
