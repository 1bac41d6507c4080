package core

// This file is the core half of the flight recorder: the reference
// lifecycle optionally times itself through its named stages (lookup →
// derive → load → admit → insert/evict) into a per-cache scratch Span and
// hands the completed span to a configured SpanSink. The instrumentation
// follows the telemetry spine's contract — zero overhead when disabled
// (every hook is a nil check on Config.Tracer), no allocation when
// enabled (the scratch span lives on the Cache and is passed by value),
// and sinks run under the cache's execution context.

// Stage indexes one lifecycle stage of a reference span. The stages are
// the named steps of the reference lifecycle; a span accumulates wall
// nanoseconds per stage as the reference moves through them.
type Stage uint8

// The lifecycle stages, in hot-path order.
const (
	// StageLookup is the index probe locating the entry (or not).
	StageLookup Stage = iota
	// StageDerive is time spent consulting the semantic deriver — inline
	// on the Reference miss path, or attributed from the singleflight
	// flight via Request.ExecNanos on the concurrent Load path.
	StageDerive
	// StageLoad is loader execution time attributed by the concurrent
	// front via Request.ExecNanos; the core never runs loaders itself.
	StageLoad
	// StageAdmit covers reference accounting, victim selection and the
	// LNC-A profit comparison of the miss path.
	StageAdmit
	// StageInsert is the residency commit of an admitted set.
	StageInsert
	// StageEvict covers evicting the victim batch of an admission.
	StageEvict
	// StageApply is the deferred-application stage of the buffered hit
	// path: the time a promotion spent queued between the lock-free hit
	// and the shard worker charging its recency/λ bookkeeping.
	StageApply

	// NumStages is the number of stages; keep last.
	NumStages
)

// String names the stage for metrics and logs.
func (s Stage) String() string {
	switch s {
	case StageLookup:
		return "lookup"
	case StageDerive:
		return "derive"
	case StageLoad:
		return "load"
	case StageAdmit:
		return "admit"
	case StageInsert:
		return "insert"
	case StageEvict:
		return "evict"
	case StageApply:
		return "apply"
	default:
		return "unknown"
	}
}

// Span is the flight-recorder record of one reference: its identity and
// outcome, monotonic per-stage timings, and the decision inputs the
// admission gate evaluated. Spans are passed by value; they never point
// into live cache state.
type Span struct {
	// ID is the compressed query ID.
	ID string
	// Class is the workload class of the reference.
	Class int
	// Outcome is the reference's lifecycle outcome (Hit, HitDerived,
	// MissAdmitted, MissRejected or ExternalMiss).
	Outcome EventKind
	// Size and Cost are the request's retrieved-set size and execution
	// cost.
	Size int64
	// Cost is the execution cost in logical block reads.
	Cost float64
	// Time is the logical time of the reference.
	Time float64
	// Start is the span's begin timestamp in monotonic nanoseconds (an
	// ordering key, comparable across spans of one process only).
	Start int64
	// Stages holds wall nanoseconds accumulated per lifecycle stage.
	Stages [NumStages]int64
	// Total is the span's end-to-end wall nanoseconds, including loader
	// or derivation time attributed via Request.ExecNanos.
	Total int64
	// Decided reports whether an admission comparison ran; when false the
	// set was admitted into free space or rejected without a comparison
	// (too large to ever fit, or no victim set could free enough space).
	Decided bool
	// HasHistory reports whether the profit comparison used the sliding-
	// window estimates (true) or the e-profit estimates (false).
	HasHistory bool
	// Profit, Bar and Theta are the admission comparison's inputs: the
	// candidate's (estimated) profit, the victims' aggregate (estimated)
	// profit, and the admission threshold θ (zero when the admitter does
	// not report one). The rule is admit ⇔ profit > θ·bar.
	Profit, Bar, Theta float64
	// Lambda is the entry's reference-rate estimate λ after this
	// reference, and RefDepth the number of recorded reference times (≤ K).
	Lambda   float64
	RefDepth int
	// Victims is the number of entries evicted (admitted outcomes) or
	// proposed for eviction (rejected outcomes with a comparison).
	Victims int
	// AncestorID names the cached ancestor of a derived hit.
	AncestorID string
}

// SpanSink observes completed reference spans. Implementations run under
// the cache's execution context (single-threaded, or with the owning
// shard's mutex held), must not call back into the cache, and must be
// cheap: with a tracer attached every reference completes a span.
type SpanSink interface {
	ObserveSpan(Span)
}

// spanBegin resets the scratch span for a new reference. All span hooks
// compile to a nil check when no tracer is configured; the disabled hot
// path never reads the clock or touches the scratch span.
func (c *Cache) spanBegin(id string, class int, size int64, cost, now float64) {
	if c.tracer == nil {
		return
	}
	c.span = Span{ID: id, Class: class, Size: size, Cost: cost, Time: now, Start: monotonicNanos()}
	c.spanMark = c.span.Start
}

// spanID names the scratch span. The reference path begins its span before
// the canonical ID exists as a string — the probe runs on the caller's
// bytes — and names it from the entry it found or the string the miss
// materialized.
func (c *Cache) spanID(id string) {
	if c.tracer == nil {
		return
	}
	c.span.ID = id
}

// spanStage closes the stage that began at the previous mark, attributing
// the elapsed monotonic nanoseconds to it.
func (c *Cache) spanStage(st Stage) {
	if c.tracer == nil {
		return
	}
	now := monotonicNanos()
	c.span.Stages[st] += now - c.spanMark
	c.spanMark = now
}

// spanCharge attributes externally measured nanoseconds to a stage — the
// concurrent front times loader executions and derivations outside the
// shard lock and reports them via Request.ExecNanos.
func (c *Cache) spanCharge(st Stage, nanos int64) {
	if c.tracer == nil || nanos <= 0 {
		return
	}
	c.span.Stages[st] += nanos
}

// spanEntry records the decision inputs derivable from the entry: its λ
// estimate and reference-window depth after the current reference.
func (c *Cache) spanEntry(e *Entry, now float64) {
	if c.tracer == nil || e == nil {
		return
	}
	c.span.Lambda = e.Rate(now)
	c.span.RefDepth = e.Refs()
}

// spanDecision records the admission gate's inputs on the scratch span.
func (c *Cache) spanDecision(outcome EventKind, dec admitOutcome, victims int) {
	if c.tracer == nil {
		return
	}
	c.span.Outcome = outcome
	c.span.Profit, c.span.Bar, c.span.Theta = dec.profit, dec.bar, dec.theta
	c.span.HasHistory, c.span.Decided = dec.hasHistory, dec.decided
	c.span.Victims = victims
}

// spanFinish stamps the outcome and submits the scratch span.
func (c *Cache) spanFinish(outcome EventKind) {
	if c.tracer == nil {
		return
	}
	c.span.Outcome = outcome
	c.spanSubmit()
}

// spanSubmit completes the scratch span with its total duration and hands
// it to the tracer. The miss path uses it directly: the outcome was
// already stamped by the admit/commit stage that resolved the reference.
func (c *Cache) spanSubmit() {
	if c.tracer == nil {
		return
	}
	c.span.Total = monotonicNanos() - c.span.Start
	c.tracer.ObserveSpan(c.span)
}
