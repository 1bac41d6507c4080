package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// flatBodies are bodies the flat scanner must accept; declinedBodies are
// ones it must hand to encoding/json (which accepts some and rejects
// others). Together they seed both fuzz targets.
var flatBodies = []string{
	// The three shapes the benchmark sends (json.Encoder output, so '<' and
	// '>' arrive as \u003c and \u003e).
	`{"query_id":"SELECT d.name, SUM(f.amount) FROM fact f JOIN dim03 d ON f.k03 = d.key WHERE f.bucket = 0000042 GROUP BY d.name","time":0.001,"size":2049,"cost":201,"relations":["fact","dim03"]}`,
	`{"query_id":"select l_returnflag, sum(l_quantity) from lineitem where l_shipdate \u003e= 100 and l_shipdate \u003c 465 group by l_returnflag","time":17.25,"class":3,"size":4096,"cost":1250.5,"relations":["lineitem"]}`,
	`{"query_id":"q","size":1,"cost":0}`,
	" \t\r\n{ \"query_id\" : \"q\" , \"size\" : 7 , \"cost\" : 1 , \"relations\" : [ \"a\" , \"b\" ] } \r\n",
	`{"query_id":"\"\\\/\b\f\n\r\t","size":1,"cost":1}`,
	`{"query_id":"\u00e9\u4e16\u0000\uFFFD","size":1,"cost":1}`,
	`{"query_id":"héllo 世界 😀","size":1,"cost":1,"relations":["größe"]}`,
	`{"query_id":"q","time":-0,"size":-0,"cost":-0.0}`,
	`{"query_id":"q","size":1,"cost":0.5E-2,"time":1e+2}`,
	`{"query_id":"q","size":9223372036854775807,"cost":1}`,
	`{"query_id":"q","size":-9223372036854775808,"cost":1}`,
	`{"query_id":"q","class":3000000000,"size":1,"cost":1}`,
	`{"query_id":"q","size":1,"cost":1,"relations":[]}`,
	`{"query_id":"q","size":1,"cost":1,"relations":["a]b","c,d"]}`,
	`{"query_id":"q","size":1,"cost":1e-400}`,
	`{"query_id":"` + strings.Repeat(`x\n`, 200) + `","size":1,"cost":1}`,
	`{}`,
}

var declinedBodies = []string{
	`{"query_id":"q","size":1,"cost":1,"payload":{"rows":[1,2]}}`,
	`{"query_id":"q","size":1,"cost":1,"plan":{"rel":"lineitem","cols":["l_quantity"]}}`,
	`{"query_id":"\ud83d\ude00","size":1,"cost":1}`,
	`{"query_id":"\ud800","size":1,"cost":1}`,
	"{\"query_id\":\"a\x80b\",\"size\":1,\"cost\":1}",
	"{\"query_id\":\"a\x01b\",\"size\":1,\"cost\":1}",
	`{"query_id":"q","size":01,"cost":1}`,
	`{"query_id":"q","size":1e3,"cost":1}`,
	`{"query_id":"q","size":1.0,"cost":1}`,
	`{"query_id":"q","size":9223372036854775808,"cost":1}`,
	`{"query_id":"q","size":1,"cost":1e999}`,
	`{"query_id":"q","size":1,"cost":1.}`,
	`{"query_id":"q","size":1,"cost":.5}`,
	`{"query_id":"q","size":1,"cost":-}`,
	`{"query_id":"q","size":1,"cost":1,"size":2}`,
	`{"query_id":"q","size":1,"cost":1,"relations":["a"],"relations":["b"]}`,
	`{"Query_ID":"q","size":1,"cost":1}`,
	`{"query\u005fid":"q","size":1,"cost":1}`,
	`{"query_id":null,"size":1,"cost":1}`,
	`{"query_id":"q","size":null,"cost":1}`,
	`{"query_id":"q","size":1,"cost":1,"relations":null}`,
	`{"query_id":"q","size":1,"cost":1,"relations":[null]}`,
	`{"query_id":"q","size":1,"cost":1,"relations":["a",]}`,
	`{"query_id":"q","size":1,"cost":1,}`,
	`{"query_id":"q","size":1,"cost":1}x`,
	`{"query_id":"q","size":1,"cost":1} {"query_id":"q","size":1,"cost":1}`,
	`{"query_id":"q","size":1,"cost":1,"bogus":true}`,
	`{"query_id":5,"size":1,"cost":1}`,
	`{"query_id":"q","size":"1","cost":1}`,
	`{"query_id":"q\x","size":1,"cost":1}`,
	`{"query_id":"q","size":1,"cost":1`,
	`["query_id"]`,
	`null`,
	``,
}

func TestScanReferenceSeeds(t *testing.T) {
	for _, body := range flatBodies {
		var req ReferenceRequest
		if !scanReference([]byte(body), &req) {
			t.Errorf("flat scanner declined %q", body)
		}
	}
	for _, body := range declinedBodies {
		var req ReferenceRequest
		if scanReference([]byte(body), &req) {
			t.Errorf("flat scanner accepted %q as %+v", body, req)
		}
	}
}

func seedBodies(f *testing.F) {
	for _, body := range flatBodies {
		f.Add([]byte(body))
	}
	for _, body := range declinedBodies {
		f.Add([]byte(body))
	}
}

// FuzzDecodeReference holds the flat scanner to its contract: whatever it
// accepts, the strict generic decoder accepts too, and both yield the same
// request.
func FuzzDecodeReference(f *testing.F) {
	seedBodies(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var got ReferenceRequest
		if !scanReference(body, &got) {
			return
		}
		var want ReferenceRequest
		rec := httptest.NewRecorder()
		if !decodeStrict(rec, body, &want) {
			t.Fatalf("flat scanner accepted %q as %+v; generic decoder: %s", body, got, rec.Body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n flat    %#v\n generic %#v", body, got, want)
		}
	})
}

// FuzzHandleReference pushes raw bodies through the routed handler: no
// panic, nothing but 200/400/413, and the cache's invariants hold after.
func FuzzHandleReference(f *testing.F) {
	seedBodies(f)
	sc, err := shard.New(shard.Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 16, K: 2, Policy: core.LNCRA},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := New(sc).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reference", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if err := sc.CheckInvariants(); err != nil {
			t.Fatalf("after body %q: %v", body, err)
		}
	})
}

func TestOversizeBodyIs413(t *testing.T) {
	// Restored by a cleanup registered before the server's, so it runs
	// after the server has closed and no handler can still read the cap.
	old := maxBodyBytes
	maxBodyBytes = 128
	t.Cleanup(func() { maxBodyBytes = old })
	ts, sc := newTestServer(t)
	pad := strings.Repeat("x", 200)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"reference flat, under the cap", "/v1/reference", `{"query_id":"q","size":1,"cost":1}`, http.StatusOK},
		{"reference flat, over", "/v1/reference", `{"query_id":"` + pad + `","size":1,"cost":1}`, http.StatusRequestEntityTooLarge},
		{"reference generic, over", "/v1/reference", `{"query_id":"q","size":1,"cost":1,"payload":"` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{"reference garbage, over", "/v1/reference", pad, http.StatusRequestEntityTooLarge},
		{"invalidate, under the cap", "/v1/invalidate", `{"relations":["r"]}`, http.StatusOK},
		{"invalidate, over", "/v1/invalidate", `{"relations":["` + pad + `"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, data)
		}
		var e errorBody
		if c.want != http.StatusOK && (json.Unmarshal(data, &e) != nil || !strings.Contains(e.Error, "128-byte limit")) {
			t.Errorf("%s: error body %q does not name the limit", c.name, data)
		}
	}
	if st := sc.Stats(); st.References != 1 {
		t.Errorf("references = %d, want 1: a refused body must not reach the cache", st.References)
	}
}

// TestPooledBodyIsNotAliased admits a set through the handler, recycles
// the body pool under it with bodies of other lengths, and checks that
// everything the cache kept still reads as it was sent.
func TestPooledBodyIsNotAliased(t *testing.T) {
	ts, sc := newTestServer(t)
	const id = "select first from facts where k \u003e 1" // escaped: takes the slow string path
	first := ReferenceRequest{QueryID: id, Size: 64, Cost: 10, Relations: []string{"facts", "dim_first"}}
	if resp, data := postJSON(t, ts.URL+"/v1/reference", first); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	for i := 0; i < 120; i++ {
		req := ReferenceRequest{
			QueryID:   "other " + strings.Repeat("y", i*3),
			Size:      64,
			Cost:      10,
			Relations: []string{strings.Repeat("z", 1+i%17), "shared"},
		}
		if resp, data := postJSON(t, ts.URL+"/v1/reference", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	var peek PeekResponse
	if code := getJSON(t, ts.URL+"/v1/peek/"+url.PathEscape(id), &peek); code != http.StatusOK || !peek.Resident {
		t.Errorf("peek of the first ID: status %d, %+v", code, peek)
	}
	want := core.CompressID(id)
	found := false
	for _, sh := range sc.ExportState().Shards {
		for _, e := range sh.Entries {
			if e.ID == want {
				found = reflect.DeepEqual(e.Relations, first.Relations)
			}
		}
	}
	if !found {
		t.Errorf("the cache no longer holds %q with relations %q", want, first.Relations)
	}
	resp, data := postJSON(t, ts.URL+"/v1/invalidate", InvalidateRequest{Relations: []string{"dim_first"}})
	var inv InvalidateResponse
	if err := json.Unmarshal(data, &inv); err != nil || resp.StatusCode != http.StatusOK || inv.Dropped != 1 {
		t.Errorf("invalidate dim_first: status %d, body %s, want dropped 1", resp.StatusCode, data)
	}
}

// TestOutcomeReplyMatchesWriteJSON pins the constant hit/miss replies to
// what the JSON encoder writes.
func TestOutcomeReplyMatchesWriteJSON(t *testing.T) {
	for _, hit := range []bool{false, true} {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, ReferenceResponse{Hit: hit})
		writeOutcome(got, hit)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("hit=%v: got %d %q %v, want %d %q %v", hit,
				got.Code, got.Body, got.Header(), want.Code, want.Body, want.Header())
		}
	}
	// Through the handler: a miss and a payload-less hit take the constant
	// reply, a hit with a payload still carries it.
	ts, _ := newTestServer(t)
	bare := ReferenceRequest{QueryID: "bare", Size: 64, Cost: 10}
	for _, want := range []string{"{\"hit\":false}\n", "{\"hit\":true}\n"} {
		resp, data := postJSON(t, ts.URL+"/v1/reference", bare)
		if string(data) != want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("reply %q (%s), want %q", data, resp.Header.Get("Content-Type"), want)
		}
	}
	rows := ReferenceRequest{QueryID: "rows", Size: 64, Cost: 10, Payload: "the rows"}
	postJSON(t, ts.URL+"/v1/reference", rows)
	if _, data := postJSON(t, ts.URL+"/v1/reference", rows); string(data) != "{\"hit\":true,\"payload\":\"the rows\"}\n" {
		t.Errorf("hit with payload: %q", data)
	}
}

// replayBody is a request body that can be rewound and sent again.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// nullWriter is a ResponseWriter that keeps the status and allocates
// nothing of its own.
type nullWriter struct {
	header http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestReferenceHandlerAllocs bounds what the handler allocates for a flat
// 190-byte hit with the telemetry registry attached: the MaxBytesReader,
// the query ID, the relations slice and its two names — not the decoder,
// its buffers or the reply.
func TestReferenceHandlerAllocs(t *testing.T) {
	sc, err := shard.New(shard.Config{
		Shards:   4,
		Cache:    core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sc).Handler()
	body := []byte(flatBodies[0])
	if len(body) < 180 || len(body) > 200 {
		t.Fatalf("body is %d bytes, want about 190", len(body))
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/reference", nil)
	var rb replayBody
	w := &nullWriter{header: http.Header{}}
	serve := func() {
		rb.Reset(body)
		req.Body = &rb
		clear(w.header)
		h.ServeHTTP(w, req)
	}
	serve() // the miss that admits the set, and the pool's first buffer
	allocs := testing.AllocsPerRun(200, serve)
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if st := sc.Stats(); st.Hits < 200 {
		t.Fatalf("hits = %d: the measured requests were not hits", st.Hits)
	}
	if allocs > 6 {
		t.Errorf("flat-body hit allocates %.0f times in the handler, want ≤ 6", allocs)
	}
	t.Logf("%d-byte flat hit: %.0f allocations", len(body), allocs)
}
