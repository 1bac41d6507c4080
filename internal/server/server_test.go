package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

func newTestServer(t *testing.T) (*httptest.Server, *shard.Sharded) {
	t.Helper()
	sc, err := shard.New(shard.Config{
		Shards: 4,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sc))
	t.Cleanup(ts.Close)
	return ts, sc
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestReferenceMissThenHit(t *testing.T) {
	ts, _ := newTestServer(t)
	req := ReferenceRequest{QueryID: "select sum(x) from t", Size: 128, Cost: 900, Payload: "the rows"}

	resp, data := postJSON(t, ts.URL+"/v1/reference", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out ReferenceResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Hit {
		t.Fatal("first reference must miss")
	}

	resp, data = postJSON(t, ts.URL+"/v1/reference", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Hit || out.Payload != "the rows" {
		t.Fatalf("second reference: %+v", out)
	}
}

func TestReferenceValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []ReferenceRequest{
		{Size: 10, Cost: 1},                         // missing query_id
		{QueryID: "q", Size: 0, Cost: 1},            // non-positive size
		{QueryID: "q", Size: 10, Cost: -1},          // negative cost
		{QueryID: "q", Size: 10, Cost: 1, Time: -5}, // negative time
	}
	for i, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/reference", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/reference", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/reference", "application/json",
		bytes.NewReader([]byte(`{"query_id":"q","size":1,"cost":1,"bogus":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// Exactly one JSON value: bytes after it are refused, whichever decoder
	// the first value would have taken.
	for _, body := range []string{
		`{"query_id":"q","size":1,"cost":1} junk`,
		`{"query_id":"q","size":1,"cost":1} {"query_id":"q","size":1,"cost":1}`,
		`{"query_id":"q","size":1,"cost":1,"payload":"rows"}]`,
	} {
		resp, err = http.Post(ts.URL+"/v1/reference", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing bytes %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestPeek(t *testing.T) {
	ts, sc := newTestServer(t)
	sc.Reference(shard.Request{QueryID: "warm query", Time: 1, Size: 64, Cost: 10, Payload: 42.0})

	var got PeekResponse
	if code := getJSON(t, ts.URL+"/v1/peek/"+url.PathEscape("warm query"), &got); code != http.StatusOK {
		t.Fatalf("peek resident: status %d", code)
	}
	if !got.Resident || got.Payload != 42.0 {
		t.Errorf("peek = %+v", got)
	}
	if code := getJSON(t, ts.URL+"/v1/peek/absent", &got); code != http.StatusNotFound {
		t.Errorf("peek absent: status %d, want 404", code)
	}
	st := sc.Stats()
	if st.References != 1 {
		t.Errorf("peek must not count references, got %d", st.References)
	}
}

func TestInvalidate(t *testing.T) {
	ts, sc := newTestServer(t)
	for i := 0; i < 10; i++ {
		sc.Reference(shard.Request{
			QueryID: fmt.Sprintf("q%d", i), Time: float64(i + 1),
			Size: 64, Cost: 10, Relations: []string{"lineitem"},
		})
	}
	resp, data := postJSON(t, ts.URL+"/v1/invalidate", InvalidateRequest{Relations: []string{"lineitem"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out InvalidateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", out.Dropped)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/invalidate", InvalidateRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty relations: status %d, want 400", resp.StatusCode)
	}
	sc.Reference(shard.Request{QueryID: "again", Time: 20, Size: 64, Cost: 10, Relations: []string{"dim03"}})
	raw, err := http.Post(ts.URL+"/v1/invalidate", "application/json", strings.NewReader(`{"relations":["dim03"]} junk`))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest || sc.Resident() != 1 {
		t.Errorf("trailing bytes: status %d, resident %d; want 400 and nothing dropped", raw.StatusCode, sc.Resident())
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts, sc := newTestServer(t)
	sc.Reference(shard.Request{QueryID: "q", Time: 1, Size: 64, Cost: 10})
	sc.Reference(shard.Request{QueryID: "q", Time: 2, Size: 64, Cost: 10})

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.References != 2 || st.Hits != 1 {
		t.Errorf("stats = refs %d hits %d", st.References, st.Hits)
	}
	if st.CostSavingsRatio != 0.5 || st.HitRatio != 0.5 {
		t.Errorf("ratios = CSR %g HR %g, want 0.5", st.CostSavingsRatio, st.HitRatio)
	}
	if st.Shards != 4 || st.CapacityBytes != 1<<20 || st.Resident != 1 {
		t.Errorf("occupancy = %+v", st)
	}

	var health HealthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: %d %+v", code, health)
	}
	if health.Version == "" || health.GoVersion == "" || health.UptimeSeconds < 0 {
		t.Errorf("healthz build info = %+v, want version, go_version and non-negative uptime", health)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := getJSON(t, ts.URL+"/v1/reference", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reference: status %d, want 405", code)
	}
}

// TestConcurrentClients exercises the full HTTP path from many goroutines;
// run with -race to catch handler/cache races.
func TestConcurrentClients(t *testing.T) {
	ts, sc := newTestServer(t)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := ReferenceRequest{
					QueryID: fmt.Sprintf("query %d", i%20),
					Size:    128,
					Cost:    50,
				}
				b, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/reference", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if err := sc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.References != workers*perWorker {
		t.Errorf("references = %d, want %d", st.References, workers*perWorker)
	}
}
