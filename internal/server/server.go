// Package server exposes a sharded WATCHMAN cache as an HTTP daemon, in
// the spirit of web-enabled cache daemons for complex query results: the
// cache manager runs as a long-lived process and query frontends talk to
// it over a small JSON protocol.
//
// Endpoints:
//
//	POST /v1/reference    lookup + admission for one query submission
//	GET  /v1/peek/{id}    non-mutating residency probe for a query ID
//	GET  /v1/explain/{id} residency plus the last admission/eviction
//	                      decision for the ID, inequality spelled out
//	POST /v1/invalidate   coherence hook: drop entries by base relation
//	GET  /v1/admission    adaptive-admission threshold and tuning history
//	POST /v1/snapshot     on-demand snapshot flush (persistence enabled)
//	GET  /stats           aggregated counters and the paper's metrics
//	                      (?format=csv for a per-class CSV breakdown,
//	                      &section=relation for the per-relation one)
//	GET  /metrics         Prometheus text exposition of the telemetry spine
//	GET  /debug/requests  recent flight-recorder spans (?slow=1 for the
//	                      slow log); pprof mounts under /debug/pprof with
//	                      EnableProfiling
//	GET  /healthz         liveness probe with build info and uptime
//
// All bodies are JSON unless noted. A POST body is exactly one object with
// no unknown fields (400 otherwise) of at most 64 MiB (413 over it); see
// decode.go for how /v1/reference decodes its own. Request times are
// logical seconds; a zero or omitted time means "now" per the cache's time
// source, so live traffic needs no clock of its own while trace replays
// can supply exact stamps. /metrics and the per-class /stats sections require the cache to
// have a telemetry registry attached (shard.Config.Registry); the debug
// and explain endpoints require a flight recorder (shard.Config.Recorder).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// ReferenceRequest is the body of POST /v1/reference. It mirrors
// core.Request: the client reports the query it is about to run (or has
// run) with the retrieved set's size and execution cost.
type ReferenceRequest struct {
	QueryID string `json:"query_id"`
	// Time is the submission time in logical seconds. Zero or omitted
	// means "now" per the cache's time source — live clients should leave
	// it unset rather than supplying clocks of their own.
	Time float64 `json:"time,omitempty"`
	// Class is the workload class of the submission (multiclass traces);
	// it keys the per-class telemetry breakdowns. Omitted means class 0.
	Class     int      `json:"class,omitempty"`
	Size      int64    `json:"size"`
	Cost      float64  `json:"cost"`
	Relations []string `json:"relations,omitempty"`
	Payload   any      `json:"payload,omitempty"`
	// Plan is the query's plan descriptor. With derivation enabled
	// (`watchman serve -derive`), a miss whose plan is subsumed by a
	// cached set is answered as a derived hit instead of a miss.
	Plan *engine.Descriptor `json:"plan,omitempty"`
}

// ReferenceResponse is the body of a successful POST /v1/reference. Hit
// reports the cache outcome; Payload carries the stored retrieved set
// when one exists. Payload may be null on a hit — when the set was
// admitted without a payload, or when the hit was answered by
// bookkeeping-only semantic derivation — so clients that need the rows
// themselves (rather than the advisory "you need not re-execute" signal)
// must check Payload, not Hit.
type ReferenceResponse struct {
	Hit     bool `json:"hit"`
	Payload any  `json:"payload,omitempty"`
}

// PeekResponse is the body of a successful GET /v1/peek/{id}.
type PeekResponse struct {
	Resident bool `json:"resident"`
	Payload  any  `json:"payload,omitempty"`
}

// InvalidateRequest is the body of POST /v1/invalidate.
type InvalidateRequest struct {
	Relations []string `json:"relations"`
}

// InvalidateResponse reports how many resident sets an invalidation hit.
type InvalidateResponse struct {
	Dropped int `json:"dropped"`
}

// StatsResponse is the body of GET /stats: the raw aggregated counters
// plus the paper's derived metrics, the cache's occupancy, and — when a
// telemetry registry is attached — the per-class and per-relation
// cost-savings breakdowns.
type StatsResponse struct {
	shard.Stats
	CostSavingsRatio float64 `json:"cost_savings_ratio"`
	HitRatio         float64 `json:"hit_ratio"`
	AvgUtilization   float64 `json:"avg_utilization"`
	Resident         int     `json:"resident"`
	UsedBytes        int64   `json:"used_bytes"`
	CapacityBytes    int64   `json:"capacity_bytes"`
	Shards           int     `json:"shards"`
	// Classes is the per-class breakdown (ascending by class), present
	// only with a telemetry registry attached.
	Classes []telemetry.ClassSnapshot `json:"classes,omitempty"`
	// Relations is the per-relation breakdown (ascending by name), present
	// only with a telemetry registry attached.
	Relations []telemetry.RelationSnapshot `json:"relations,omitempty"`
	// Snapshot reports persistence health when a snapshotter is attached:
	// the last attempt's outcome, so a silently failing background loop
	// (full disk, permissions) is visible from the stats endpoint.
	Snapshot *SnapshotStatus `json:"snapshot,omitempty"`
}

// SnapshotStatus is the persistence-health section of /stats.
type SnapshotStatus struct {
	Path string `json:"path"`
	// LastUnixMS, LastBytes and LastResident describe the last SUCCESSFUL
	// write (all zero before one happens) — LastUnixMS is its completion
	// wall time in Unix milliseconds, i.e. how stale the on-disk file is.
	LastUnixMS   int64 `json:"last_unix_ms"`
	LastBytes    int64 `json:"last_bytes"`
	LastResident int   `json:"last_resident"`
	// LastDurationMS and LastMaxPauseMS describe the last successful
	// write's cost: its wall time, and the longest single shard-lock
	// pause its chunked capture inflicted on foreground traffic.
	LastDurationMS float64 `json:"last_duration_ms"`
	LastMaxPauseMS float64 `json:"last_max_pause_ms"`
	// LastError carries the most recent attempt's failure, empty when it
	// succeeded. A non-empty value alongside an aging LastUnixMS is the
	// "background loop is failing" alarm.
	LastError string `json:"last_error,omitempty"`
}

// AdmissionResponse is the body of GET /v1/admission. When the cache runs
// a static admission policy only Enabled (false) is meaningful; with
// adaptive admission it reports the live threshold, the tuning-window and
// candidate-grid configuration, and the retained round history (most
// recent first).
type AdmissionResponse struct {
	Enabled   bool      `json:"enabled"`
	Threshold float64   `json:"threshold,omitempty"`
	Window    int       `json:"window,omitempty"`
	Grid      []float64 `json:"grid,omitempty"`
	// Arms reports every candidate threshold's live shadow-cache standing
	// (smoothed and cumulative CSR), in grid order — the tuner's own
	// what-if view, not just the θ it published.
	Arms   []admission.ArmScore `json:"arms,omitempty"`
	Rounds []admission.Round    `json:"rounds,omitempty"`
}

// SnapshotResponse is the body of a successful POST /v1/snapshot.
type SnapshotResponse struct {
	// Path is the snapshot file written; Bytes its encoded size.
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
	// Resident is the number of resident sets captured.
	Resident int `json:"resident"`
	// ElapsedMS is the capture + write wall time in milliseconds;
	// MaxLockPauseMS the longest single shard-lock pause within it.
	ElapsedMS      float64 `json:"elapsed_ms"`
	MaxLockPauseMS float64 `json:"max_lock_pause_ms"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Server serves a sharded cache over HTTP.
type Server struct {
	cache *shard.Sharded
	snap  *shard.Snapshotter // nil when persistence is not configured
	mux   *http.ServeMux
	start time.Time // process start, for the uptime gauge
}

// New builds a server around the cache and registers all routes.
func New(cache *shard.Sharded) *Server {
	s := &Server{cache: cache, mux: http.NewServeMux(), start: clock.Now()}
	s.mux.HandleFunc("POST /v1/reference", s.handleReference)
	s.mux.HandleFunc("GET /v1/peek/{id}", s.handlePeek)
	s.mux.HandleFunc("GET /v1/explain/{id}", s.handleExplain)
	s.mux.HandleFunc("POST /v1/invalidate", s.handleInvalidate)
	s.mux.HandleFunc("GET /v1/admission", s.handleAdmission)
	s.mux.HandleFunc("GET /v1/whatif", s.handleWhatIf)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// SetSnapshotter enables POST /v1/snapshot, wiring it to the cache's
// snapshotter. Call before serving; without one the endpoint reports
// that persistence is not configured.
func (s *Server) SetSnapshotter(sn *shard.Snapshotter) { s.snap = sn }

// Handler returns the server's routing handler, ready for http.Serve or
// an httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes *Server itself an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// The two payload-less reference replies, byte for byte what writeJSON
// produces for ReferenceResponse{Hit: …}.
var (
	jsonContentType = []string{"application/json"}
	hitReply        = []byte("{\"hit\":true}\n")
	missReply       = []byte("{\"hit\":false}\n")
)

// writeOutcome answers a reference that carries no payload.
func writeOutcome(w http.ResponseWriter, hit bool) {
	// The shared slice is never written through: len == cap, so even an
	// Add by a wrapping handler copies it first.
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if hit {
		_, _ = w.Write(hitReply)
	} else {
		_, _ = w.Write(missReply)
	}
}

func (s *Server) handleReference(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeReference(w, r)
	if !ok {
		return
	}
	switch {
	case req.QueryID == "":
		writeError(w, http.StatusBadRequest, "query_id is required")
		return
	case req.Size <= 0:
		writeError(w, http.StatusBadRequest, "size must be positive, got %d", req.Size)
		return
	case req.Cost < 0:
		writeError(w, http.StatusBadRequest, "cost must be non-negative, got %g", req.Cost)
		return
	case req.Time < 0:
		writeError(w, http.StatusBadRequest, "time must be non-negative, got %g", req.Time)
		return
	case req.Class < 0 || req.Class >= telemetry.MaxTrackedClasses:
		// The per-class telemetry table is dense; an unbounded index would
		// be an allocation amplifier.
		writeError(w, http.StatusBadRequest, "class must be in [0, %d), got %d",
			telemetry.MaxTrackedClasses, req.Class)
		return
	}
	if req.Plan != nil {
		if err := req.Plan.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "bad plan: %v", err)
			return
		}
	}
	creq := shard.Request{
		QueryID:   req.QueryID,
		Time:      req.Time,
		Class:     req.Class,
		Size:      req.Size,
		Cost:      req.Cost,
		Relations: req.Relations,
		Payload:   req.Payload,
	}
	if req.Plan != nil {
		// Guarded: assigning a typed nil would read as "plan present".
		creq.Plan = req.Plan
	}
	hit, payload := s.cache.Reference(creq)
	if payload == nil {
		writeOutcome(w, hit)
		return
	}
	writeJSON(w, http.StatusOK, ReferenceResponse{Hit: hit, Payload: payload})
}

func (s *Server) handlePeek(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "empty query id")
		return
	}
	payload, ok := s.cache.Peek(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, PeekResponse{Resident: false})
		return
	}
	writeJSON(w, http.StatusOK, PeekResponse{Resident: true, Payload: payload})
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var req InvalidateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Relations) == 0 {
		writeError(w, http.StatusBadRequest, "relations is required")
		return
	}
	dropped := s.cache.Invalidate(req.Relations...)
	writeJSON(w, http.StatusOK, InvalidateResponse{Dropped: dropped})
}

func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	tuner := s.cache.Tuner()
	if tuner == nil {
		writeJSON(w, http.StatusOK, AdmissionResponse{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, AdmissionResponse{
		Enabled:   true,
		Threshold: tuner.Threshold(),
		Window:    tuner.Window(),
		Grid:      admission.DefaultGrid(),
		Arms:      tuner.ArmScores(),
		Rounds:    tuner.Rounds(),
	})
}

// handleWhatIf serves the ghost-cache matrix report: per-cell estimated
// CSR, per-policy miss-ratio curves and the capacity/policy advisor
// verdict. The optional margin query parameter overrides the CSR
// improvement the advisor requires before recommending a configuration.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	m := s.cache.WhatIf()
	if m == nil {
		writeError(w, http.StatusNotFound, "what-if matrix not enabled (serve -whatif)")
		return
	}
	margin := 0.0 // Report treats ≤0 as the default margin
	if raw := r.URL.Query().Get("margin"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v <= 0 || v >= 1 {
			writeError(w, http.StatusBadRequest, "margin must be a number in (0, 1), got %q", raw)
			return
		}
		margin = v
	}
	writeJSON(w, http.StatusOK, m.Report(margin))
}

// durationMS renders a duration as fractional milliseconds for the JSON
// bodies.
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snap == nil {
		writeError(w, http.StatusServiceUnavailable,
			"snapshot persistence is not configured (start the server with -snapshot-path)")
		return
	}
	info, err := s.snap.TrySnapshot(r.Context())
	switch {
	case errors.Is(err, shard.ErrSnapshotInFlight):
		// One write at a time: concurrent callers back off and retry
		// instead of queueing unboundedly on the snapshotter's mutex.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "a snapshot is already in flight; retry shortly")
	case err != nil && r.Context().Err() != nil:
		// The client went away mid-write. The write itself runs to
		// completion in the background and its outcome lands in /stats;
		// this response is written into the void either way.
		writeError(w, http.StatusServiceUnavailable,
			"request aborted; the in-progress snapshot completes in the background")
	case err != nil:
		writeError(w, http.StatusInternalServerError, "snapshot failed: %v", err)
	default:
		writeJSON(w, http.StatusOK, SnapshotResponse{
			Path:           info.Path,
			Bytes:          info.Bytes,
			Resident:       info.Resident,
			ElapsedMS:      durationMS(info.Elapsed),
			MaxLockPauseMS: durationMS(info.MaxLockPause),
		})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
	case "csv":
		switch section := r.URL.Query().Get("section"); section {
		case "", "class":
			s.writeCSV(w, s.statsCSVTable())
		case "relation":
			s.writeCSV(w, s.relationCSVTable())
		default:
			writeError(w, http.StatusBadRequest, "unknown section %q (want class or relation)", section)
		}
		return
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or csv)", format)
		return
	}
	st := s.cache.Stats()
	resp := StatsResponse{
		Stats:            st,
		CostSavingsRatio: st.CostSavingsRatio(),
		HitRatio:         st.HitRatio(),
		AvgUtilization:   st.AvgUtilization(),
		Resident:         s.cache.Resident(),
		UsedBytes:        s.cache.UsedBytes(),
		CapacityBytes:    s.cache.Capacity(),
		Shards:           s.cache.NumShards(),
	}
	if reg := s.cache.Registry(); reg != nil {
		snap := reg.Snapshot()
		resp.Classes = snap.Classes
		resp.Relations = snap.Relations
	}
	resp.Snapshot = s.snapshotStatus()
	writeJSON(w, http.StatusOK, resp)
}

// snapshotStatus builds the persistence-health section shared by /stats
// and /healthz, nil when no snapshotter is attached.
func (s *Server) snapshotStatus() *SnapshotStatus {
	if s.snap == nil {
		return nil
	}
	good, goodAt, lastErr := s.snap.Last()
	status := &SnapshotStatus{
		Path:           s.snap.Path(),
		LastBytes:      good.Bytes,
		LastResident:   good.Resident,
		LastDurationMS: durationMS(good.Elapsed),
		LastMaxPauseMS: durationMS(good.MaxLockPause),
	}
	if !goodAt.IsZero() {
		status.LastUnixMS = goodAt.UnixMilli()
	}
	if lastErr != nil {
		status.LastError = lastErr.Error()
	}
	return status
}

// statsCSVTable renders the per-class cost-savings breakdown plus a
// "total" row as a metrics.Table. With a registry attached, the class
// rows and the total come from one snapshot, so the table is internally
// consistent even under live traffic; without one, only the total row
// (from the aggregated shard counters) is available.
func (s *Server) statsCSVTable() *metrics.Table {
	t := metrics.NewTable("", "class", "references", "hits", "derived_hits", "external_misses",
		"cost_total", "cost_saved", "csr", "hit_ratio")
	if reg := s.cache.Registry(); reg != nil {
		snap := reg.Snapshot()
		for _, c := range snap.Classes {
			t.AddRowValues(c.Class, c.References, c.Hits, c.DerivedHits, c.ExternalMisses,
				c.CostTotal, c.CostSaved, metrics.Ratio(c.CSR()), metrics.Ratio(c.HitRatio()))
		}
		t.AddRowValues("total", snap.References(), snap.Hits, snap.DerivedHits, snap.ExternalMisses,
			snap.CostTotal, snap.CostSaved, metrics.Ratio(snap.CSR()), metrics.Ratio(snap.HitRatio()))
		return t
	}
	st := s.cache.Stats()
	t.AddRowValues("total", st.References, st.Hits, st.DerivedHits, st.ExternalMisses,
		st.CostTotal, st.CostSaved, metrics.Ratio(st.CostSavingsRatio()), metrics.Ratio(st.HitRatio()))
	return t
}

// relationCSVTable renders the per-relation breakdown of the JSON stats
// section as CSV (GET /stats?format=csv&section=relation). It is empty
// without a telemetry registry: relations are tracked by the registry,
// not the shard counters.
func (s *Server) relationCSVTable() *metrics.Table {
	t := metrics.NewTable("", "relation", "references", "hits", "derived_hits", "external_misses",
		"invalidations", "cost_total", "cost_saved", "csr", "hit_ratio")
	reg := s.cache.Registry()
	if reg == nil {
		return t
	}
	for _, rel := range reg.Snapshot().Relations {
		t.AddRowValues(rel.Relation, rel.References, rel.Hits, rel.DerivedHits, rel.ExternalMisses,
			rel.Invalidations, rel.CostTotal, rel.CostSaved, metrics.Ratio(rel.CSR()), metrics.Ratio(rel.HitRatio()))
	}
	return t
}

// writeCSV serves one stats table as CSV.
func (s *Server) writeCSV(w http.ResponseWriter, t *metrics.Table) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_ = t.CSV(w)
}

// handleMetrics serves the Prometheus text exposition format: the
// registry's counters, breakdowns and histograms, followed by the
// occupancy gauges only the serving layer knows.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.cache.Registry()
	if reg == nil {
		writeError(w, http.StatusNotFound, "no telemetry registry attached (set shard.Config.Registry)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := reg.WritePrometheus(w); err != nil {
		return // client went away mid-write; nothing sensible to send
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("watchman_resident_sets", "Retrieved sets currently cached.", int64(s.cache.Resident()))
	gauge("watchman_used_bytes", "Payload plus metadata bytes charged against capacity.", s.cache.UsedBytes())
	gauge("watchman_capacity_bytes", "Total configured cache capacity.", s.cache.Capacity())
	gauge("watchman_shards", "Number of cache shards.", int64(s.cache.NumShards()))
	if m := s.cache.WhatIf(); m != nil {
		m.WritePrometheusTo(w)
	}
	fmt.Fprintf(w, "# HELP watchman_build_info Build metadata; the value is always 1.\n"+
		"# TYPE watchman_build_info gauge\n"+
		"watchman_build_info{version=\"%s\",go_version=\"%s\"} 1\n",
		telemetry.EscapeLabel(buildVersion()), telemetry.EscapeLabel(runtime.Version()))
	fmt.Fprintf(w, "# HELP watchman_uptime_seconds Seconds since the server started.\n"+
		"# TYPE watchman_uptime_seconds gauge\n"+
		"watchman_uptime_seconds %.3f\n", clock.Since(s.start).Seconds())
}

// buildVersion reports the main module's version from the embedded build
// info — "(devel)" for plain go-build binaries, a pseudo-version for
// module-installed ones, "unknown" when build info is absent (tests of
// old toolchains).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// HealthzResponse is the body of GET /healthz: liveness plus the same
// build identity and uptime /metrics exposes, so a probe (or a human with
// curl) needs no Prometheus parser to identify the process.
type HealthzResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Snapshot reports persistence health (last snapshot duration, bytes
	// and max lock pause alongside the last-good/last-error fields), nil
	// when persistence is not configured.
	Snapshot *SnapshotStatus `json:"snapshot,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthzResponse{
		Status:        "ok",
		Version:       buildVersion(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: clock.Since(s.start).Seconds(),
		Snapshot:      s.snapshotStatus(),
	})
}
