package core

// This file is the core half of the telemetry spine: the reference
// lifecycle (lookup → account → admit → insert/evict) emits one typed
// Event per outcome on the cache's configured EventSink. Everything the
// paper's accounting is judged by — hits, admissions, rejections,
// evictions, coherence drops, and the externally-resolved misses that
// bypass admission — flows through here, so a single sink observes the
// complete reference stream.

// EventKind enumerates the cache lifecycle outcomes an EventSink observes.
type EventKind uint8

// The lifecycle outcomes. Every Reference call ends in exactly one of
// Hit, HitDerived, MissAdmitted or MissRejected (where the admission
// events of a derived set carry Derived=true and do not count as a
// reference outcome of their own); every Account call ends in Hit or
// ExternalMiss; Evict and Invalidate record entry departures (space
// pressure and coherence, respectively) and are not references.
const (
	// EventHit is a reference satisfied from cache.
	EventHit EventKind = iota
	// EventMissAdmitted is a miss whose retrieved set was cached.
	EventMissAdmitted
	// EventMissRejected is a miss denied admission (by the admission test,
	// by a set too large to ever fit, or by an unsatisfiable victim search).
	EventMissRejected
	// EventEvict is a resident set evicted by replacement.
	EventEvict
	// EventInvalidate is an entry (resident or retained) dropped by a
	// coherence event.
	EventInvalidate
	// EventExternalMiss is a reference charged via Account(req, false): it
	// consulted the cache but its outcome was resolved outside the miss
	// lifecycle (stale singleflight results, loader failures).
	EventExternalMiss
	// EventHitDerived is a reference answered by semantic derivation: the
	// exact set was not cached, but a cached ancestor subsumed it and
	// re-deriving cost less than remote execution. Cost carries the remote
	// cost, DeriveCost the derivation cost; the saving is their difference.
	EventHitDerived
	// EventRestore announces a resident entry re-admitted from a snapshot
	// by Cache.RestoreState. It is not a reference outcome and carries no
	// cost accounting (the restored Stats already include the entry's
	// history); sinks that track cached content (the derivation index) use
	// it to relearn residency.
	EventRestore

	numEventKinds // sentinel; keep last
)

// String names the kind for logs and metrics.
func (k EventKind) String() string {
	switch k {
	case EventHit:
		return "hit"
	case EventMissAdmitted:
		return "miss_admitted"
	case EventMissRejected:
		return "miss_rejected"
	case EventEvict:
		return "evict"
	case EventInvalidate:
		return "invalidate"
	case EventExternalMiss:
		return "external_miss"
	case EventHitDerived:
		return "hit_derived"
	case EventRestore:
		return "restore"
	default:
		return "unknown"
	}
}

// Event is one typed lifecycle notification. It is passed by value and
// must not be retained beyond the Emit call if Entry or Victims are kept:
// those point into live cache state.
type Event struct {
	// Kind is the lifecycle outcome.
	Kind EventKind
	// Time is the logical time of the event.
	Time float64
	// Class is the workload class of the request (or of the entry, for
	// departures). Single-class workloads use class 0.
	Class int
	// ID is the compressed query ID.
	ID string
	// Size is the retrieved-set size in bytes.
	Size int64
	// Cost is the execution cost charged or saved by the event, in logical
	// block reads.
	Cost float64
	// Relations lists the base relations the query reads.
	Relations []string
	// Entry is the cache record involved, when one exists. It is nil for
	// ExternalMiss events and for rejections of sets that never
	// materialized a record.
	Entry *Entry
	// Resident reports, on Invalidate events, whether the entry still held
	// its payload when the coherence event dropped it (false = only
	// retained reference information was dropped).
	Resident bool
	// Victims is the replacement-candidate list an admission comparison
	// ruled on: the victims evicted by a MissAdmitted decision, or the
	// candidates spared by a MissRejected one. It is non-nil exactly when
	// Decided is true.
	Victims []*Entry
	// Profit and Bar are the two sides of the admission comparison on
	// MissAdmitted/MissRejected events with Decided set. On Evict events
	// Profit carries the victim's own profit at eviction time.
	Profit, Bar float64
	// Theta is the admission threshold θ the comparison used (admit ⇔
	// Profit > Theta·Bar), when the admitter reports one; 0 means unknown.
	// Meaningful only when Decided is true.
	Theta float64
	// HasHistory reports whether the comparison used the sliding-window
	// profit estimates (true) or the e-profit estimates (false).
	// Meaningful only when Decided is true.
	HasHistory bool
	// Decided reports whether an Admitter ruled on a profit comparison for
	// this MissAdmitted/MissRejected event. False means the set was
	// admitted into free space, or rejected without a comparison (too
	// large to ever fit, or no victim set could free enough space).
	Decided bool
	// Rank is, on Evict events, the victim's position in its eviction
	// batch (0 = least profitable, evicted first).
	Rank int
	// DeriveCost is the derivation cost of a HitDerived event; the cost
	// saved by the derivation is Cost − DeriveCost.
	DeriveCost float64
	// AncestorID names the cached entry a HitDerived answer was computed
	// from.
	AncestorID string
	// Derived marks MissAdmitted/MissRejected events that record the
	// admission decision for a derived retrieved set (inserted at residual
	// cost after a HitDerived outcome) rather than a reference outcome.
	// Reference accountants must skip them: the reference was already
	// counted by the HitDerived event.
	Derived bool
}

// Sig returns the signature of the event's query ID, reading it off the
// attached Entry when one exists (hits and admissions carry the entry) and
// hashing the ID otherwise (external misses, recordless rejections). Both
// paths yield the same value: entries store Signature(ID) at creation.
func (ev Event) Sig() uint64 {
	if ev.Entry != nil {
		return ev.Entry.Sig
	}
	return Signature(ev.ID)
}

// EventSink observes lifecycle events. Implementations run under the
// cache's execution context (single-threaded, or with the owning shard's
// mutex held), must not call back into the cache, and must be cheap: the
// hit path emits an event per reference. A sink may retain an event's
// Relations slice, read-only: the cache keeps request relation slices in
// its entries as they are and never writes to them.
type EventSink interface {
	Emit(Event)
}

// EventSinkFunc adapts a plain function to the EventSink interface.
type EventSinkFunc func(Event)

// Emit calls f.
func (f EventSinkFunc) Emit(ev Event) { f(ev) }

// multiSink fans one event stream out to several sinks, in order.
type multiSink []EventSink

// Emit forwards the event to every sink.
func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// MultiSink combines several sinks into one that forwards every event to
// each, in argument order. Nil sinks are skipped; a single survivor is
// returned unwrapped.
func MultiSink(sinks ...EventSink) EventSink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// emit forwards one event to every configured sink. Call sites guard with
// hasSinks so the hit path never constructs an Event nobody consumes.
func (c *Cache) emit(ev Event) {
	for _, s := range c.sinks {
		s.Emit(ev)
	}
}

// hasSinks reports whether any sink is attached.
func (c *Cache) hasSinks() bool { return len(c.sinks) > 0 }
