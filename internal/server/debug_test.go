package server

import (
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// newDebugServer builds a single-shard server with a flight recorder
// capturing every span, so tests see deterministic rings.
func newDebugServer(t *testing.T, cfg core.Config) (*httptest.Server, *shard.Sharded, *flight.Recorder) {
	t.Helper()
	rec := flight.New(flight.Config{SampleEvery: 1, SlowThreshold: -1})
	sc, err := shard.New(shard.Config{Shards: 1, Cache: cfg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc))
	t.Cleanup(ts.Close)
	return ts, sc, rec
}

// capturingAdmitter wraps an admitter and records every comparison it
// ruled on — the mirror oracle for the explain replay test.
type capturingAdmitter struct {
	inner    core.Admitter
	profits  []float64
	bars     []float64
	verdicts []bool
}

func (a *capturingAdmitter) Admit(d core.AdmissionDecision) bool {
	ok := a.inner.Admit(d)
	a.profits = append(a.profits, d.Profit)
	a.bars = append(a.bars, d.Bar)
	a.verdicts = append(a.verdicts, ok)
	return ok
}

// TestExplainReproducesRejection replays a deterministic trace twice: once
// through the served single-shard cache with the flight recorder, once
// through a bare core cache whose admitter records the comparisons it
// evaluated. The explain endpoint must report the rejected signature's
// profit and bar bit-for-bit equal to what the core computed, with LNC-A's
// θ = 1 and the inequality spelled out.
func TestExplainReproducesRejection(t *testing.T) {
	cfg := core.Config{Capacity: 1000, K: 2, Policy: core.LNCRA}
	ts, _, _ := newDebugServer(t, cfg)

	refs := []struct {
		id   string
		time float64
		cost float64
	}{
		{"hot", 1, 500}, {"hot", 2, 500}, {"hot", 3, 500},
		{"hot", 4, 500}, {"hot", 5, 500}, {"hot", 6, 500},
		{"cheap", 10, 0.001},
	}
	// Mirror replay through a bare core cache with a capturing LNC-A.
	oracle := &capturingAdmitter{inner: core.LNCA()}
	mirrorCfg := cfg
	mirrorCfg.Admitter = oracle
	mirror, err := core.New(mirrorCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		req := ReferenceRequest{QueryID: r.id, Time: r.time, Size: 1000, Cost: r.cost}
		if resp, data := postJSON(t, ts.URL+"/v1/reference", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %s: %d %s", r.id, resp.StatusCode, data)
		}
		mirror.Reference(core.Request{QueryID: r.id, Time: r.time, Size: 1000, Cost: r.cost})
	}
	if len(oracle.verdicts) == 0 || oracle.verdicts[len(oracle.verdicts)-1] {
		t.Fatalf("mirror replay must end in a rejection, verdicts = %v", oracle.verdicts)
	}
	wantProfit := oracle.profits[len(oracle.profits)-1]
	wantBar := oracle.bars[len(oracle.bars)-1]

	var out ExplainResponse
	if code := getJSON(t, ts.URL+"/v1/explain/cheap", &out); code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}
	if out.Resident {
		t.Error("rejected set must not be resident")
	}
	if out.QueryID != "cheap" || out.ID != core.CompressID("cheap") {
		t.Errorf("identity = %+v", out)
	}
	d := out.Decision
	if d == nil {
		t.Fatal("no decision recorded for the rejected signature")
	}
	if d.Kind != "miss_rejected" || !d.Decided {
		t.Fatalf("decision = %+v, want a decided rejection", d)
	}
	if d.Theta != 1 {
		t.Errorf("θ = %g, want 1 (static LNC-A)", d.Theta)
	}
	if d.Profit != wantProfit || d.Bar != wantBar {
		t.Errorf("recorded profit=%g bar=%g, core evaluated profit=%g bar=%g (must match exactly)",
			d.Profit, d.Bar, wantProfit, wantBar)
	}
	if d.HasHistory {
		t.Error("first-reference rejection must report the e-profit estimate")
	}
	for _, frag := range []string{
		fmt.Sprintf("%g", wantProfit),
		fmt.Sprintf("%g", wantBar),
		"θ·bar", "rejected by LNC-A", "admit requires profit > θ·bar",
	} {
		if !strings.Contains(out.Explanation, frag) {
			t.Errorf("explanation %q missing %q", out.Explanation, frag)
		}
	}

	// The resident hot set explains as a free-space admission.
	var hot ExplainResponse
	if code := getJSON(t, ts.URL+"/v1/explain/hot", &hot); code != http.StatusOK {
		t.Fatalf("explain hot: status %d", code)
	}
	if !hot.Resident || hot.Decision == nil || hot.Decision.Kind != "miss_admitted" {
		t.Errorf("hot = %+v", hot)
	}
	if hot.Decision.Decided {
		t.Error("free-space admission must be undecided")
	}
	if !strings.Contains(hot.Explanation, "free space") {
		t.Errorf("explanation %q", hot.Explanation)
	}

	// A signature the cache never saw is a 404.
	if code := getJSON(t, ts.URL+"/v1/explain/never-seen", nil); code != http.StatusNotFound {
		t.Errorf("unknown signature: status %d, want 404", code)
	}
}

// TestDebugRequests exercises the span endpoint: recency order, the n
// bound, the slow ordering and parameter validation.
func TestDebugRequests(t *testing.T) {
	ts, sc, _ := newDebugServer(t, core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA})
	for i := 0; i < 10; i++ {
		sc.Reference(shard.Request{QueryID: fmt.Sprintf("q%d", i), Time: float64(i + 1), Size: 64, Cost: 10})
	}
	var out DebugRequestsResponse
	if code := getJSON(t, ts.URL+"/debug/requests", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !out.Sampled {
		t.Error("sampled flag must be set")
	}
	if len(out.Spans) != 10 {
		t.Fatalf("spans = %d, want 10", len(out.Spans))
	}
	if out.Spans[0].ID != core.CompressID("q9") {
		t.Errorf("newest span = %q, want q9", out.Spans[0].ID)
	}
	for _, sp := range out.Spans {
		if sp.Outcome != "miss_admitted" {
			t.Errorf("span %s outcome = %q", sp.ID, sp.Outcome)
		}
		if sp.TotalNanos <= 0 {
			t.Errorf("span %s total = %d, want > 0", sp.ID, sp.TotalNanos)
		}
		if sp.Stages["lookup"] <= 0 {
			t.Errorf("span %s has no lookup stage: %v", sp.ID, sp.Stages)
		}
	}

	if code := getJSON(t, ts.URL+"/debug/requests?n=3", &out); code != http.StatusOK || len(out.Spans) != 3 {
		t.Errorf("n=3: status %d, %d spans", code, len(out.Spans))
	}
	if code := getJSON(t, ts.URL+"/debug/requests?slow=1&n=5", &out); code != http.StatusOK || len(out.Spans) != 5 {
		t.Errorf("slow: status %d, %d spans", code, len(out.Spans))
	}
	for i := 1; i < len(out.Spans); i++ {
		if out.Spans[i-1].TotalNanos < out.Spans[i].TotalNanos {
			t.Errorf("slow log not ordered by duration: %d < %d", out.Spans[i-1].TotalNanos, out.Spans[i].TotalNanos)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/requests?n=zero", nil); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/debug/requests?n=-1", nil); code != http.StatusBadRequest {
		t.Errorf("negative n: status %d, want 400", code)
	}
}

// TestDebugEndpointsWithoutRecorder checks both endpoints 404 cleanly when
// no recorder is attached.
func TestDebugEndpointsWithoutRecorder(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/debug/requests", "/v1/explain/whatever"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "no flight recorder") {
			t.Errorf("%s: body %q must say there is no recorder", path, body)
		}
	}
}

// TestPprofMounting checks pprof is reachable only after EnableProfiling.
func TestPprofMounting(t *testing.T) {
	sc, err := shard.New(shard.Config{Shards: 1, Cache: core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sc)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Errorf("pprof before EnableProfiling: status %d, want 404", code)
	}
	srv.EnableProfiling()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsBuildInfo checks /metrics carries the build-info gauge and
// the uptime counter alongside the cache gauges.
func TestMetricsBuildInfo(t *testing.T) {
	sc, err := shard.New(shard.Config{
		Shards:   1,
		Cache:    core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `watchman_build_info{version="`) {
		t.Errorf("no build info gauge in:\n%s", text)
	}
	if !strings.Contains(text, `go_version="go`) {
		t.Errorf("no go_version label in:\n%s", text)
	}
	if !strings.Contains(text, "watchman_uptime_seconds ") {
		t.Errorf("no uptime metric in:\n%s", text)
	}
	for _, ty := range []string{
		"# TYPE watchman_build_info gauge",
		"# TYPE watchman_uptime_seconds gauge",
	} {
		if !strings.Contains(text, ty) {
			t.Errorf("missing %q", ty)
		}
	}
}

// TestStatsCSVRelationSection checks the per-relation CSV view matches the
// JSON per-relation section, and that unknown sections are rejected.
func TestStatsCSVRelationSection(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc, err := shard.New(shard.Config{
		Shards:   2,
		Cache:    core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc))
	defer ts.Close()

	for i := 0; i < 4; i++ {
		sc.Reference(shard.Request{QueryID: "q1", Time: float64(i + 1), Size: 64, Cost: 10, Relations: []string{"lineitem"}})
	}
	sc.Reference(shard.Request{QueryID: "q2", Time: 5, Size: 64, Cost: 10, Relations: []string{"orders"}})

	resp, err := http.Get(ts.URL + "/stats?format=csv&section=relation")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/csv") {
		t.Errorf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 relations:\n%s", len(lines), body)
	}
	if !strings.HasPrefix(lines[0], "relation,references,hits,") {
		t.Errorf("header = %q", lines[0])
	}
	var lineitem string
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "lineitem,") {
			lineitem = l
		}
	}
	if lineitem == "" {
		t.Fatalf("no lineitem row in:\n%s", body)
	}
	// 4 references, 3 hits (first was a miss).
	if !strings.HasPrefix(lineitem, "lineitem,4,3,") {
		t.Errorf("lineitem row = %q, want 4 references and 3 hits", lineitem)
	}

	// The default section still renders the per-class table.
	resp, err = http.Get(ts.URL + "/stats?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "class,") {
		t.Errorf("default csv: status %d, body %q", resp.StatusCode, body)
	}

	if code := getJSON(t, ts.URL+"/stats?format=csv&section=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bogus section: status %d, want 400", code)
	}
}

// TestStatsCSVRelationNameParses sends a relation name holding a quote
// and a comma over HTTP and reads it back out of the per-relation CSV with
// encoding/csv: the CSV must be RFC 4180, not Go-quoted.
func TestStatsCSVRelationNameParses(t *testing.T) {
	sc, err := shard.New(shard.Config{
		Shards:   1,
		Cache:    core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc))
	defer ts.Close()

	const name = `say "hi", there`
	body := `{"query_id":"q","time":1,"size":64,"cost":10,"relations":["say \"hi\", there"]}`
	resp, err := http.Post(ts.URL+"/v1/reference", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference: status %s", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/stats?format=csv&section=relation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatalf("relation CSV does not parse: %v", err)
	}
	for _, row := range rows[1:] {
		if row[0] == name {
			return
		}
	}
	t.Fatalf("relation %q not in the CSV rows %q", name, rows)
}
