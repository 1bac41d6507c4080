package server

import (
	"net/http/httptest"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/shard"
)

func TestAdmissionEndpointDisabled(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp AdmissionResponse
	if code := getJSON(t, ts.URL+"/v1/admission", &resp); code != 200 {
		t.Fatalf("GET /v1/admission = %d, want 200", code)
	}
	if resp.Enabled {
		t.Error("static cache must report enabled=false")
	}
}

func TestAdmissionEndpointEnabled(t *testing.T) {
	// The window is the test traffic: its last reference closes the one
	// round, and the drain below orders the history read after it.
	tuner, err := admission.New(admission.Config{Capacity: 1 << 20, K: 2, Window: 80})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := shard.New(shard.Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Tuner:  tuner,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc))
	t.Cleanup(ts.Close)

	var resp AdmissionResponse
	if code := getJSON(t, ts.URL+"/v1/admission", &resp); code != 200 {
		t.Fatalf("GET /v1/admission = %d, want 200", code)
	}
	if !resp.Enabled {
		t.Fatal("adaptive cache must report enabled=true")
	}
	if resp.Threshold != 1 {
		t.Errorf("initial threshold = %g, want 1", resp.Threshold)
	}
	if resp.Window != 80 {
		t.Errorf("window = %d, want 80", resp.Window)
	}
	if len(resp.Grid) != len(admission.DefaultGrid()) {
		t.Errorf("grid has %d candidates, want %d", len(resp.Grid), len(admission.DefaultGrid()))
	}
	if len(resp.Arms) != len(resp.Grid) {
		t.Errorf("arms = %d, want one per grid candidate (%d)", len(resp.Arms), len(resp.Grid))
	}

	for i := 0; i < 80; i++ {
		postJSON(t, ts.URL+"/v1/reference", ReferenceRequest{
			QueryID: "select q" + string(rune('a'+i%10)), Size: 256, Cost: 100,
		})
	}
	tuner.Drain()
	if code := getJSON(t, ts.URL+"/v1/admission", &resp); code != 200 {
		t.Fatalf("GET /v1/admission = %d, want 200", code)
	}
	if len(resp.Rounds) == 0 {
		t.Error("tuning history empty after a completed round")
	}
	// After a tuning round every shadow arm has replayed the
	// window, so the per-arm scores must show traffic.
	for _, arm := range resp.Arms {
		if arm.References == 0 {
			t.Errorf("arm θ=%g replayed no references after a tuning round", arm.Theta)
		}
	}
}
