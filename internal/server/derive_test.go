package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// newDeriveServer builds a test server with derivation and telemetry on.
func newDeriveServer(t *testing.T) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sc, err := shard.New(shard.Config{
		Shards:   4,
		Cache:    core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Registry: reg,
		Deriver:  derive.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func postRef(t *testing.T, url string, req ReferenceRequest) ReferenceResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/reference", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var out ReferenceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReferenceAcceptsPlan drives the derivation path over HTTP: admit an
// ancestor with a plan descriptor, then reference a subsumed query — the
// response must report a hit and the registry a derived hit.
func TestReferenceAcceptsPlan(t *testing.T) {
	ts, reg := newDeriveServer(t)

	anc := &engine.Descriptor{
		Rel:   "lineitem",
		Preds: []engine.Pred{{Col: "l_shipdate", Op: engine.OpRange, Lo: 0, Hi: 364}},
		Cols:  []string{"l_shipdate", "l_extendedprice"},
	}
	out := postRef(t, ts.URL, ReferenceRequest{
		QueryID: "anc", Size: 4096, Cost: 900, Relations: []string{"lineitem"}, Plan: anc,
	})
	if out.Hit {
		t.Fatal("first reference cannot hit")
	}

	child := &engine.Descriptor{
		Rel:   "lineitem",
		Preds: []engine.Pred{{Col: "l_shipdate", Op: engine.OpRange, Lo: 30, Hi: 59}},
		Cols:  []string{"l_extendedprice"},
	}
	out = postRef(t, ts.URL, ReferenceRequest{
		QueryID: "child", Size: 512, Cost: 900, Relations: []string{"lineitem"}, Plan: child,
	})
	if !out.Hit {
		t.Fatal("subsumed reference should be served as a derived hit")
	}
	snap := reg.Snapshot()
	if snap.DerivedHits != 1 {
		t.Fatalf("registry DerivedHits = %d, want 1", snap.DerivedHits)
	}

	// The /metrics exposition carries the new counter.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("watchman_derived_hits_total 1")) {
		t.Fatal("/metrics missing watchman_derived_hits_total 1")
	}
}

// TestReferenceRejectsBadPlan guards the trust boundary.
func TestReferenceRejectsBadPlan(t *testing.T) {
	ts, _ := newDeriveServer(t)
	body, _ := json.Marshal(ReferenceRequest{
		QueryID: "q", Size: 64, Cost: 10,
		Plan: &engine.Descriptor{}, // empty relation
	})
	resp, err := http.Post(ts.URL+"/v1/reference", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
}
