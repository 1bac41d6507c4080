// Package ghost feeds counterfactual cache sets from a live cache's event
// stream. Two sets use it: the admission tuner's θ arms (every reference,
// rate 1) and the what-if matrix's capacity × policy grid (a 1/R sample).
// Each set owns one Feed and receives the stream as Ops, in order, through
// the function it hands to NewFeed.
//
// A Feed runs in one of two modes. Until Start, every Op is applied inline,
// inside the Emit or Invalidate call that produced it: offline replays
// (internal/sim) drive their sets this way, deterministically and without
// loss. After Start, which the sharded layer calls when it attaches the
// set, Ops go through a bounded FIFO to one background worker, so the
// shadow replays stay off the request path.
//
// Hot-path contract: Emit runs under the live cache's execution context
// (the shard mutex). An unsampled reference costs two branches, a striped
// counter increment and a hash multiply; a sampled one adds a channel
// send. Neither allocates or locks. When the FIFO is full a sampled
// reference is shed (counted), never waited for.
package ghost

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// buffer is the depth of a feed's FIFO: two default tuning windows, so a
// burst can wait out a tuning round without being shed, at ~400 KB of
// Ops per started feed.
const buffer = 4096

// OpKind discriminates the Ops a set receives.
type OpKind uint8

const (
	// OpRef is a reference outcome to replay.
	OpRef OpKind = iota
	// OpRestore is a snapshot-restored resident set to warm-insert.
	OpRestore
	// OpInvalidate is a coherence event; Relations names the relations.
	OpInvalidate
)

// Op is one unit of ghost work, in the canonical form the live cache
// resolved: ID is the compressed query ID and Sig its signature. Relations
// is the live cache's own slice and is read-only.
type Op struct {
	Kind      OpKind
	ID        string
	Sig       uint64
	Time      float64
	Class     int
	Size      int64
	Cost      float64
	Relations []string

	// done marks Drain's barrier, stop Close's marker; neither reaches a
	// set.
	done chan struct{}
	stop bool
}

// Request rebuilds the canonical request the Op replays.
func (o *Op) Request() core.Request {
	return core.Request{QueryID: o.ID, Time: o.Time, Class: o.Class, Size: o.Size,
		Cost: o.Cost, Relations: o.Relations}
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

// Feed carries one ghost set's share of the event stream. It implements
// core.EventSink. All methods are safe for concurrent use; apply is
// called by one goroutine at a time only in the worker mode, so a set
// fed inline from several goroutines must lock for itself.
type Feed struct {
	rate  uint64
	apply func(Op)

	seen    stripedCounter // every reference outcome observed
	sampled stripedCounter // passed the hash filter
	shed    atomic.Int64   // sampled but not replayed

	start   sync.Once
	ops     chan Op       // made by Start; inline feeds never need one
	stopped chan struct{} // closed when the worker exits
	started atomic.Bool   // set once ops and the worker exist
	closed  atomic.Bool
}

// NewFeed returns an inline feed that replays 1 in rate references (by
// signature hash) into apply. Start switches it to a worker behind a
// bounded FIFO.
func NewFeed(rate int, apply func(Op)) *Feed {
	return &Feed{rate: uint64(rate), apply: apply, stopped: make(chan struct{})}
}

// Start moves the feed to its background worker. Later calls, and calls
// after Close, do nothing.
func (f *Feed) Start() {
	f.start.Do(func() {
		f.ops = make(chan Op, buffer)
		go f.worker()
		f.started.Store(true)
	})
}

// Counts reports the references observed, those that passed the sampling
// filter, and the sampled ones shed on a full FIFO or after Close.
func (f *Feed) Counts() (seen, sampled, shed int64) {
	return f.seen.load(), f.sampled.load(), f.shed.Load()
}

// inSample reports whether a signature belongs to the replayed slice. The
// multiply mixes the hash and the high bits are taken because the sharded
// layer routes on the low bits — sampling on those would starve or flood
// individual shards' slices.
func (f *Feed) inSample(sig uint64) bool {
	return f.rate == 1 || (sig*0x9E3779B97F4A7C15)>>33%f.rate == 0
}

// Emit consumes one live-cache event: reference outcomes and restores
// pass the filter, departures do not.
//
//watchman:hotpath
func (f *Feed) Emit(ev core.Event) {
	kind := OpRef
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
		kind = OpRestore
	default:
		// Evictions and invalidations are ghost-local decisions: each
		// ghost evicts by its own policy, and coherence arrives through
		// Invalidate.
		return
	}
	sig := ev.Sig()
	if kind == OpRef {
		f.seen.add(sig)
	}
	if !f.inSample(sig) || ev.Size <= 0 {
		// Size 0 means there is no retrieved set to cache (failed or
		// account-only executions); nothing to replay.
		return
	}
	o := Op{Kind: kind, ID: ev.ID, Sig: sig, Time: ev.Time, Class: ev.Class,
		Size: ev.Size, Cost: ev.Cost, Relations: ev.Relations}
	if kind == OpRestore {
		// Restores happen at boot against an empty FIFO, so waiting
		// loses nothing.
		f.send(o)
		return
	}
	f.sampled.add(sig)
	switch {
	case f.closed.Load():
		f.shed.Add(1)
	case !f.started.Load():
		f.apply(o)
	default:
		select {
		case f.ops <- o:
		default:
			f.shed.Add(1)
		}
	}
}

// Invalidate forwards a coherence event to the set, in stream order
// relative to the references around it.
func (f *Feed) Invalidate(relations ...string) {
	if len(relations) > 0 {
		f.send(Op{Kind: OpInvalidate, Relations: append([]string(nil), relations...)})
	}
}

// send delivers an Op that must not be shed: inline before Start, by a
// waiting send after it, dropped after Close.
func (f *Feed) send(o Op) {
	switch {
	case f.closed.Load():
	case !f.started.Load():
		f.apply(o)
	default:
		select {
		case f.ops <- o:
		case <-f.stopped:
		}
	}
}

// Drain blocks until every Op queued before the call has reached the set.
// Inline and after Close it returns at once: there is no queue.
func (f *Feed) Drain() {
	if !f.started.Load() {
		return
	}
	o := Op{done: make(chan struct{})}
	select {
	case f.ops <- o:
	case <-f.stopped:
		return
	}
	select {
	case <-o.done:
	case <-f.stopped:
	}
}

// Close stops the worker after it applies everything already queued.
// Events emitted after Close are counted seen (and shed if sampled) but
// not replayed. Close is idempotent.
func (f *Feed) Close() {
	// Consuming the Once waits out a Start in progress and keeps a later
	// one from starting a worker nothing would stop.
	f.start.Do(func() {})
	if !f.closed.CompareAndSwap(false, true) || !f.started.Load() {
		return
	}
	select {
	case f.ops <- Op{stop: true}:
		<-f.stopped
	case <-f.stopped:
	}
}

// worker is the single consumer of the FIFO.
func (f *Feed) worker() {
	defer close(f.stopped)
	for o := range f.ops {
		switch {
		case o.done != nil:
			close(o.done)
		case o.stop:
			return
		default:
			f.apply(o)
		}
	}
}
