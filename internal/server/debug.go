package server

// This file is the serving half of the flight recorder: /debug/requests
// exposes the recent-span rings as JSON, /v1/explain/{id} turns the last
// admission/eviction decision for a signature into the spelled-out LNC-A
// inequality the core evaluated, and EnableProfiling mounts net/http/pprof
// for CPU/heap/goroutine profiles behind the serve -debug flag.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/core"
	"repro/internal/flight"
)

// maxDebugSpans bounds one /debug/requests response.
const maxDebugSpans = 1024

// SpanJSON is the JSON shape of one flight-recorder span: identity,
// outcome, per-stage wall timings and the decision inputs captured at the
// admission gate.
type SpanJSON struct {
	ID      string `json:"id"`
	Class   int    `json:"class"`
	Outcome string `json:"outcome"`
	// Time is the logical time of the reference; Start orders spans within
	// the process (monotonic nanoseconds since start).
	Time  float64 `json:"time"`
	Start int64   `json:"start_ns"`
	// Size and Cost are the request's retrieved-set size and cost.
	Size int64   `json:"size"`
	Cost float64 `json:"cost"`
	// Stages maps stage name → wall nanoseconds; zero stages are omitted.
	Stages map[string]int64 `json:"stages,omitempty"`
	// TotalNanos is the span's end-to-end wall nanoseconds.
	TotalNanos int64 `json:"total_ns"`
	// Decided, HasHistory, Profit, Bar, Theta mirror the admission
	// decision's inputs (see flight.Decision).
	Decided    bool    `json:"decided"`
	HasHistory bool    `json:"has_history"`
	Profit     float64 `json:"profit"`
	Bar        float64 `json:"bar"`
	Theta      float64 `json:"theta"`
	// Lambda and RefDepth are the entry's λ estimate and reference-window
	// depth after the reference.
	Lambda   float64 `json:"lambda"`
	RefDepth int     `json:"ref_depth"`
	// Victims counts evicted (admissions) or spared (rejections) entries.
	Victims int `json:"victims"`
	// AncestorID names the cached ancestor of a derived hit.
	AncestorID string `json:"ancestor_id,omitempty"`
}

// NewSpanJSON converts a core span to its wire shape. Exported for the
// CLI's slow-log rendering, which shares this shape with the endpoint.
func NewSpanJSON(sp core.Span) SpanJSON {
	out := SpanJSON{
		ID:         sp.ID,
		Class:      sp.Class,
		Outcome:    sp.Outcome.String(),
		Time:       sp.Time,
		Start:      sp.Start,
		Size:       sp.Size,
		Cost:       sp.Cost,
		TotalNanos: sp.Total,
		Decided:    sp.Decided,
		HasHistory: sp.HasHistory,
		Profit:     sp.Profit,
		Bar:        sp.Bar,
		Theta:      sp.Theta,
		Lambda:     sp.Lambda,
		RefDepth:   sp.RefDepth,
		Victims:    sp.Victims,
		AncestorID: sp.AncestorID,
	}
	for st := core.Stage(0); st < core.NumStages; st++ {
		if ns := sp.Stages[st]; ns > 0 {
			if out.Stages == nil {
				out.Stages = make(map[string]int64, int(core.NumStages))
			}
			out.Stages[st.String()] = ns
		}
	}
	return out
}

// DebugRequestsResponse is the body of GET /debug/requests.
type DebugRequestsResponse struct {
	// Spans holds the captured spans, newest first (or slowest first with
	// ?slow=1).
	Spans []SpanJSON `json:"spans"`
	// Sampled reports that spans are captured one-in-N; absence of a
	// reference from Spans does not mean it did not happen.
	Sampled bool `json:"sampled"`
}

// handleDebugRequests serves recent flight-recorder spans. Query
// parameters: n bounds the span count (default 64, capped at 1024);
// slow=1 orders by total duration instead of recency (the slow log).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	rec := s.cache.FlightRecorder()
	if rec == nil {
		writeError(w, http.StatusNotFound, "no flight recorder attached (start the server with -debug)")
		return
	}
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q (want a positive integer)", q)
			return
		}
		n = min(v, maxDebugSpans)
	}
	var spans []core.Span
	if r.URL.Query().Get("slow") == "1" {
		spans = rec.Slowest(n)
	} else {
		spans = rec.Spans(n)
	}
	resp := DebugRequestsResponse{Spans: make([]SpanJSON, 0, len(spans)), Sampled: true}
	for _, sp := range spans {
		resp.Spans = append(resp.Spans, NewSpanJSON(sp))
	}
	writeJSON(w, http.StatusOK, resp)
}

// ExplainResponse is the body of GET /v1/explain/{id}: the signature's
// current residency, the last admission/eviction decision the recorder
// still holds for it, and that decision's inequality spelled out.
type ExplainResponse struct {
	// QueryID is the raw query ID asked about; ID its compressed form (the
	// key decisions are recorded under).
	QueryID string `json:"query_id"`
	ID      string `json:"id"`
	// Resident reports whether the retrieved set is cached right now.
	Resident bool `json:"resident"`
	// Decision is the last admit/reject/evict record, nil when the
	// recorder's rings no longer hold one for this signature.
	Decision *flight.Decision `json:"decision,omitempty"`
	// Explanation restates Decision as the inequality the core evaluated.
	Explanation string `json:"explanation,omitempty"`
}

// handleExplain serves GET /v1/explain/{id}. 404 means the recorder knows
// nothing: the set is not resident and no decision for it survives in the
// rings.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	rec := s.cache.FlightRecorder()
	if rec == nil {
		writeError(w, http.StatusNotFound, "no flight recorder attached (start the server with -debug)")
		return
	}
	queryID := r.PathValue("id")
	if queryID == "" {
		writeError(w, http.StatusBadRequest, "empty query id")
		return
	}
	var buf [256]byte
	key, sig := core.Canonical(buf[:0], queryID)
	_, resident := s.cache.PeekBytes(key, sig)
	id := core.CanonicalString(key, queryID)
	resp := ExplainResponse{QueryID: queryID, ID: id, Resident: resident}
	if d, ok := rec.LastDecision(id); ok {
		resp.Decision = &d
		resp.Explanation = explainDecision(d)
	}
	if !resident && resp.Decision == nil {
		writeError(w, http.StatusNotFound,
			"no record of %q: not resident, and no admission/eviction decision in the flight recorder", queryID)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// explainDecision renders one decision record as the inequality the core
// evaluated, in the paper's terms: LNC-A admits a set only when its
// (estimated) profit strictly exceeds θ times the aggregate profit of the
// sets it would displace.
func explainDecision(d flight.Decision) string {
	estimate := "profit λ·c/s"
	if !d.HasHistory {
		estimate = "e-profit c/s (no reference history, eq. 8)"
	}
	switch d.Kind {
	case "miss_rejected":
		if !d.Decided {
			if d.Victims == 0 {
				return fmt.Sprintf("rejected without an admission comparison: "+
					"no victim set could free %d bytes (set too large for the cache or its shard)", d.Size)
			}
			return "rejected without an admission comparison"
		}
		if d.Theta != 0 {
			return fmt.Sprintf("rejected by LNC-A: %s = %g ≤ θ·bar = %g × %g = %g "+
				"(the %d victim candidates' aggregate profit; admit requires profit > θ·bar)",
				estimate, d.Profit, d.Theta, d.Bar, d.Theta*d.Bar, d.Victims)
		}
		return fmt.Sprintf("rejected by the admitter: %s = %g against bar = %g "+
			"(the %d victim candidates' aggregate profit)", estimate, d.Profit, d.Bar, d.Victims)
	case "miss_admitted":
		if !d.Decided {
			return "admitted into free space (no eviction needed, no comparison ran)"
		}
		if d.Theta != 0 {
			return fmt.Sprintf("admitted by LNC-A: %s = %g > θ·bar = %g × %g = %g, evicting %d victims",
				estimate, d.Profit, d.Theta, d.Bar, d.Theta*d.Bar, d.Victims)
		}
		return fmt.Sprintf("admitted by the admitter: %s = %g against bar = %g, evicting %d victims",
			estimate, d.Profit, d.Bar, d.Victims)
	case "evict":
		return fmt.Sprintf("evicted by replacement: profit λ·c/s = %g ranked it #%d (0 = least profitable) in its victim batch",
			d.Profit, d.Rank)
	default:
		return ""
	}
}

// EnableProfiling mounts net/http/pprof's handlers under /debug/pprof on
// the server's mux. It is opt-in (the serve command's -debug flag):
// profiles expose internals no open endpoint should.
func (s *Server) EnableProfiling() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
