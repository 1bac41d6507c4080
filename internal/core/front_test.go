package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestReferenceBytesDoesNotAliasCallerBuffer references through the bytes
// entry point and then scribbles over the caller's buffer, as the next
// reference on the same stack frame would: everything the cache kept or
// handed out — the index, Entries, the events' IDs, the span's ID — must
// still hold the original ID.
func TestReferenceBytesDoesNotAliasCallerBuffer(t *testing.T) {
	var events captureEventSink
	var tracer captureTracer
	c := newTracedCache(t, Config{Capacity: 1000, K: 2, Policy: LNCRA, Sink: &events}, &tracer)

	queries := []string{"select a, b from t", "precompressed", "select (x) from u;"}
	var buf [256]byte
	for round := 0; round < 2; round++ { // first sight, then hits
		for i, q := range queries {
			key, sig := Canonical(buf[:0], q)
			hit, _ := c.ReferenceBytes(Request{QueryID: q, Time: float64(1 + round), Size: 100, Cost: 10 + float64(i)}, key, sig)
			if hit != (round == 1) {
				t.Fatalf("round %d %q: hit = %v", round, q, hit)
			}
			for j := range buf {
				buf[j] = ' ' // a delimiter: an aliased ID would stop being canonical
			}
		}
	}

	for _, q := range queries {
		e, ok := c.Lookup(q)
		if !ok || e.ID != CompressID(q) {
			t.Errorf("Lookup(%q) = %v, %v after the buffer was overwritten", q, e, ok)
		}
	}
	entries := c.Entries()
	if len(entries) != len(queries) {
		t.Fatalf("%d entries, want %d", len(entries), len(queries))
	}
	for _, e := range entries {
		if CompressID(e.ID) != e.ID || Signature(e.ID) != e.Sig {
			t.Errorf("entry ID %q / sig %#x corrupted", e.ID, e.Sig)
		}
	}
	if len(events.events) != 2*len(queries) || len(tracer.spans) != 2*len(queries) {
		t.Fatalf("%d events, %d spans, want %d each", len(events.events), len(tracer.spans), 2*len(queries))
	}
	for i := range events.events {
		want := CompressID(queries[i%len(queries)])
		if got := events.events[i].ID; got != want {
			t.Errorf("event %d ID %q, want %q", i, got, want)
		}
		if got := tracer.spans[i].ID; got != want {
			t.Errorf("span %d ID %q, want %q", i, got, want)
		}
	}
	checkInv(t, c)
}

// TestCheckInvariantsRejectsNonCanonicalID plants the fault the bytes front
// could cause — an indexed ID that is not its own canonical form — and
// expects CheckInvariants to name it.
func TestCheckInvariantsRejectsNonCanonicalID(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	c.Reference(req("select 1", 1, 10, 1))
	checkInv(t, c)
	for _, e := range c.Entries() {
		c.indexRemove(e)
		e.ID = "select 1" // what aliasing a reused buffer would leave behind
		e.Sig = Signature(e.ID)
		c.indexInsert(e)
	}
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Fatalf("CheckInvariants = %v, want a non-canonical ID violation", err)
	}
}

// TestBytesFrontReplayMatchesTwoPassOracle replays whole traces of raw,
// delimiter-bearing query strings through two caches: the oracle is fed
// the front as it used to be — CompressID, then Signature of the copy,
// then the string probe — and the other the one-pass bytes front. Stats
// must be equal and the event streams identical: every ID, every victim
// list in order, every profit bit for bit.
func TestBytesFrontReplayMatchesTwoPassOracle(t *testing.T) {
	_, multiclass, err := workload.GenerateMulticlass(0, workload.Config{Queries: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*trace.Trace{"multiclass": multiclass, "zipf": zipfTrace(1<<13, 12000, 5)}
	configs := []Config{
		{K: 4, Policy: LNCRA},
		{K: 4, Policy: LNCRA, MetadataOverhead: 64},
		{K: 2, Policy: LRUK},
		{K: 1, Policy: LRU}, // keeps no retained records: first-sight rejections name the set by the materialized ID alone
	}
	for name, tr := range traces {
		if id := tr.Records[0].QueryID; CompressID(id) == id {
			t.Fatalf("%s: raw ID %q needs no compressing, the replay proves nothing", name, id)
		}
		for _, cfg := range configs {
			cfg.Capacity = workingSetBytes(tr) / 50
			var logs [2]eventLog
			var caches [2]*Cache
			for i := range caches {
				cfg.Sink = &logs[i]
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf [256]byte
				for j := range tr.Records {
					rec := &tr.Records[j]
					r := Request{QueryID: rec.QueryID, Time: rec.Time, Class: rec.Class,
						Size: rec.Size, Cost: rec.Cost, Relations: rec.Relations}
					if i == 0 {
						r.QueryID = CompressID(rec.QueryID)
						c.ReferenceCanonical(r, Signature(r.QueryID))
					} else {
						key, sig := Canonical(buf[:0], rec.QueryID)
						c.ReferenceBytes(r, key, sig)
					}
					if j%1500 == 1499 {
						c.Invalidate(rec.Relations...)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				caches[i] = c
			}
			requireSameReplay(t, fmt.Sprintf("%s/%s meta=%d", name, cfg.Policy, cfg.MetadataOverhead),
				caches[1], caches[0], logs[1], logs[0])
		}
	}
}
