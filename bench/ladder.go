package main

// The layer ladder: the same stream replayed by one goroutine through
// each layer a reference crosses — core, shard, server, http — with a span
// recorded by the benchmark around every call into a layer's public
// function. The rungs are cumulative (each contains the one below), so a
// layer's own cost is its rung's time minus the rung below.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/whatif"
)

// daemonShards is `watchman serve`'s default -shards.
const daemonShards = 16

// cacheConfig is the core configuration `watchman serve` builds from its
// default flags: lnc-ra, K=4, scan evictor.
func cacheConfig(capacity int64) core.Config {
	return core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Evictor: core.ScanEvictor}
}

// observers selects what is attached to an in-process sharded cache.
// `watchman serve` attaches telemetry alone by default.
type observers struct {
	telemetry, admission, flight, whatif bool
}

var serveDefault = observers{telemetry: true}

// newSharded builds a sharded cache as `watchman serve` does (16 shards,
// locked mode) with the chosen observers attached through shard.Config.
func newSharded(capacity int64, obs observers) (*shard.Sharded, error) {
	cfg := shard.Config{Shards: daemonShards, Cache: cacheConfig(capacity)}
	if obs.telemetry {
		cfg.Registry = telemetry.NewRegistry()
	}
	if obs.admission {
		tuner, err := admission.New(admission.Config{Capacity: capacity, K: cfg.Cache.K, Evictor: cfg.Cache.Evictor})
		if err != nil {
			return nil, err
		}
		cfg.Tuner = tuner
	}
	if obs.flight {
		cfg.Recorder = flight.New(flight.Config{Registry: cfg.Registry})
	}
	if obs.whatif {
		ghosts, err := whatif.New(whatif.Config{Base: cfg.Cache})
		if err != nil {
			return nil, err
		}
		cfg.WhatIf = ghosts
	}
	return shard.New(cfg)
}

// Layers and operations a span can name.
const (
	layerCore = iota
	layerShard
	layerServer
	layerHTTP
)

const (
	opReference = iota
	opInvalidate
	opSnapshot
	// opInvalidateShard is one shard's part of a core-rung invalidation, a
	// child of the opInvalidate span that loops over the shards.
	opInvalidateShard
)

var (
	layerNames = []string{"core", "shard", "server", "http"}
	opNames    = []string{"reference", "invalidate", "snapshot", "invalidate_shard"}
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is the index of the enclosing span or -1; req is
// the global index of the reference the call serves (for churn calls, the
// reference they precede).
type span struct {
	layer, op  uint8
	hit        bool
	parent     int32
	req        int32
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced reruns measure tracing's own cost.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(layer, op uint8, parent int32, req int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{layer: layer, op: op, parent: parent, req: int32(req), start: int64(since(t.t0))})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(i int32, hit bool) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(since(t.t0))
	t.spans[i].hit = hit
}

// rung is one layer of the ladder as the replay loop drives it.
type rung interface {
	reference(i int, req shard.Request) (hit bool, err error)
	invalidate(i int, rel string) error
	snapshot(i int) error
}

// replay drives the stream's global indices [from, to) through the rung
// in order, with the churn calls of a churn workload at their indices.
func replay(st *stream, r rung, from, to int) (hits int64, err error) {
	for i := from; i < to; i++ {
		if j := i - st.spec.warm; st.spec.churn && j >= 0 {
			if j%invalidateEvery == 0 {
				if err := r.invalidate(i, churnRelation(j)); err != nil {
					return hits, fmt.Errorf("invalidate before reference %d: %w", i, err)
				}
			}
			if j%snapshotEvery == 0 {
				if err := r.snapshot(i); err != nil {
					return hits, fmt.Errorf("snapshot before reference %d: %w", i, err)
				}
			}
		}
		hit, err := r.reference(i, st.at(i))
		if err != nil {
			return hits, fmt.Errorf("reference %d: %w", i, err)
		}
		if hit {
			hits++
		}
	}
	return hits, nil
}

// churnRelation names the dimension relation the invalidation before
// measured reference j drops, round-robin.
func churnRelation(j int) string {
	return fmt.Sprintf("dim%02d", (j/invalidateEvery)%dims)
}

// canon is a request's compressed ID and signature, which the core rung
// needs precomputed: shard computes them before it delegates to core.
type canon struct {
	id  string
	sig uint64
}

// coreRung is 16 serial core caches at capacity/16, routed by the
// benchmark exactly as shard routes — the work shard delegates.
type coreRung struct {
	caches []*core.Cache
	pre    []canon
	tr     *tracer
}

func newCoreRung(st *stream, tr *tracer) (*coreRung, error) {
	c := &coreRung{caches: make([]*core.Cache, daemonShards), pre: make([]canon, len(st.reqs)), tr: tr}
	reg := telemetry.NewRegistry()
	per, rem := st.capacity/daemonShards, st.capacity%daemonShards
	for i := range c.caches {
		cfg := cacheConfig(per)
		if int64(i) < rem {
			cfg.Capacity++
		}
		cfg.Sink = reg.ShardSink(i)
		cache, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		c.caches[i] = cache
	}
	for i := range st.reqs {
		id := core.CompressID(st.reqs[i].QueryID)
		c.pre[i] = canon{id, core.Signature(id)}
	}
	return c, nil
}

func (c *coreRung) reference(i int, req shard.Request) (bool, error) {
	p := c.pre[i%len(c.pre)]
	req.QueryID = p.id
	cache := c.caches[p.sig&(daemonShards-1)]
	sp := c.tr.begin(layerCore, opReference, -1, i)
	hit, _ := cache.ReferenceCanonical(req, p.sig)
	c.tr.end(sp, hit)
	return hit, nil
}

func (c *coreRung) invalidate(i int, rel string) error {
	parent := c.tr.begin(layerCore, opInvalidate, -1, i)
	for _, cache := range c.caches {
		sp := c.tr.begin(layerCore, opInvalidateShard, parent, i)
		cache.Invalidate(rel)
		c.tr.end(sp, false)
	}
	c.tr.end(parent, false)
	return nil
}

// snapshot is a no-op: capturing a snapshot is shard's function.
func (c *coreRung) snapshot(int) error { return nil }

// stats sums the 16 caches' counters in shard order, as Sharded.Stats does.
func (c *coreRung) stats() (st core.Stats, resident, retained int) {
	for _, cache := range c.caches {
		st.Add(cache.Stats())
		resident += cache.Resident()
		retained += cache.Retained()
	}
	return st, resident, retained
}

func (c *coreRung) checkInvariants() error {
	for i, cache := range c.caches {
		if err := cache.CheckInvariants(); err != nil {
			return fmt.Errorf("core cache %d: %w", i, err)
		}
	}
	return nil
}

// shardRung calls shard.Sharded in-process.
type shardRung struct {
	sc *shard.Sharded
	tr *tracer
	// dropped sums the resident sets invalidations dropped; maxPause is the
	// longest shard-lock hold any snapshot reported.
	dropped  int
	maxPause time.Duration
}

func (s *shardRung) reference(i int, req shard.Request) (bool, error) {
	sp := s.tr.begin(layerShard, opReference, -1, i)
	hit, _ := s.sc.Reference(req)
	s.tr.end(sp, hit)
	return hit, nil
}

func (s *shardRung) invalidate(i int, rel string) error {
	sp := s.tr.begin(layerShard, opInvalidate, -1, i)
	s.dropped += s.sc.Invalidate(rel)
	s.tr.end(sp, false)
	return nil
}

func (s *shardRung) snapshot(i int) error {
	sp := s.tr.begin(layerShard, opSnapshot, -1, i)
	info, err := s.sc.StreamSnapshot(io.Discard)
	s.tr.end(sp, false)
	s.maxPause = max(s.maxPause, info.MaxLockPause)
	return err
}

// serverRung calls the server's handler in-process with the pre-encoded
// body, one reused request and a reply writer that keeps only the status,
// the size and the hit flag.
type serverRung struct {
	h    http.Handler
	st   *stream
	tr   *tracer
	req  *http.Request
	body bodyReader
	w    replyWriter
	// reqBytes and replyBytes sum the JSON bodies in each direction.
	reqBytes, replyBytes int64
}

// newServerRung wraps sc in a server as `watchman serve` does, with a
// snapshotter when snapshotPath is set.
func newServerRung(st *stream, sc *shard.Sharded, snapshotPath string, tr *tracer) *serverRung {
	srv := server.New(sc)
	if snapshotPath != "" {
		srv.SetSnapshotter(sc.NewSnapshotter(snapshotPath, 0))
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/reference", nil)
	req.Header.Set("Content-Type", "application/json")
	return &serverRung{h: srv.Handler(), st: st, tr: tr, req: req, w: replyWriter{header: http.Header{}}}
}

func (s *serverRung) reference(i int, _ shard.Request) (bool, error) {
	body := s.st.jsonBody(i)
	s.body.Reset(body)
	s.req.Body = &s.body
	s.req.ContentLength = int64(len(body))
	s.w.reset()
	sp := s.tr.begin(layerServer, opReference, -1, i)
	s.h.ServeHTTP(&s.w, s.req)
	s.tr.end(sp, s.w.hit)
	if s.w.status != http.StatusOK || !s.w.flagged {
		return false, fmt.Errorf("handler answered %d without a hit flag", s.w.status)
	}
	s.reqBytes += int64(len(body))
	s.replyBytes += int64(s.w.n)
	return s.w.hit, nil
}

// control runs one rare control call through the handler.
func (s *serverRung) control(op uint8, i int, path, body string) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	sp := s.tr.begin(layerServer, op, -1, i)
	s.h.ServeHTTP(rec, req)
	s.tr.end(sp, false)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST %s: %d: %s", path, rec.Code, rec.Body)
	}
	return nil
}

func (s *serverRung) invalidate(i int, rel string) error {
	return s.control(opInvalidate, i, "/v1/invalidate", fmt.Sprintf(`{"relations":[%q]}`, rel))
}

func (s *serverRung) snapshot(i int) error {
	return s.control(opSnapshot, i, "/v1/snapshot", "")
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// replyWriter is a discarding http.ResponseWriter.
type replyWriter struct {
	header  http.Header
	status  int
	n       int
	hit     bool
	flagged bool
}

func (w *replyWriter) reset() {
	clear(w.header)
	w.status, w.n, w.hit, w.flagged = http.StatusOK, 0, false, false
}

func (w *replyWriter) Header() http.Header { return w.header }

func (w *replyWriter) WriteHeader(status int) { w.status = status }

func (w *replyWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		w.hit = bytes.HasPrefix(p, hitTrue)
		w.flagged = w.hit || bytes.HasPrefix(p, hitFalse)
	}
	w.n += len(p)
	return len(p), nil
}

// httpRung talks to the real `watchman serve` process over one keep-alive
// connection.
type httpRung struct {
	d  *daemon
	c  *conn
	st *stream
	tr *tracer
}

func (h *httpRung) reference(i int, _ shard.Request) (bool, error) {
	wire := h.st.wire(i)
	sp := h.tr.begin(layerHTTP, opReference, -1, i)
	hit, err := h.c.reference(wire)
	h.tr.end(sp, hit)
	return hit, err
}

func (h *httpRung) invalidate(i int, rel string) error {
	sp := h.tr.begin(layerHTTP, opInvalidate, -1, i)
	err := h.d.invalidate(rel)
	h.tr.end(sp, false)
	return err
}

func (h *httpRung) snapshot(i int) error {
	sp := h.tr.begin(layerHTTP, opSnapshot, -1, i)
	err := h.d.snapshot()
	h.tr.end(sp, false)
	return err
}

// snapshotFile is where a workload's daemon (or server rung) persists.
func snapshotFile(root, workload, who string) string {
	return filepath.Join(root, buildDir, fmt.Sprintf("%s-%s.wmsnap", workload, who))
}
