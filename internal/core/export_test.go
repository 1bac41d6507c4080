package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestExportChunkFenceAndCopy drains a chunked export of a TPC-D-warmed
// cache at several chunk sizes while the cache changes between chunks:
// one not-yet-visited entry is hit, another is invalidated, and a new
// query is admitted. Every fenced entry that still exists when its chunk
// runs must come out exactly once, in ascending ID order, equal field for
// field to the live entry and sharing no slice with it; vanished entries
// are skipped and the new ones never appear.
func TestExportChunkFenceAndCopy(t *testing.T) {
	_, tr, err := workload.StandardTPCD(0.005, workload.Config{Queries: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 512, 0} { // 0: the whole cursor in one chunk
		t.Run(fmt.Sprintf("chunk=%d", size), func(t *testing.T) {
			c := newCache(t, Config{Capacity: 48 << 10, K: 3, Policy: LNCRA})
			now := 0.0
			for i := range tr.Records {
				rec := &tr.Records[i]
				id := CompressID(rec.QueryID)
				req := Request{QueryID: rec.QueryID, Time: rec.Time, Class: rec.Class, Size: rec.Size, Cost: rec.Cost,
					// A relation of its own lets the test invalidate exactly
					// this entry.
					Relations: append(slices.Clone(rec.Relations), "only/"+id),
					Payload:   "rows of " + id,
				}
				if rec.Plan != nil {
					req.Plan = rec.Plan
				}
				c.Reference(req)
				now = rec.Time
			}
			if c.Retained() == 0 {
				t.Fatal("the warm-up left no retained records")
			}

			cur := c.ExportBegin()
			maxEntries := size
			if maxEntries == 0 {
				maxEntries = cur.Remaining()
			}
			var (
				scratch                   []EntryState
				exported                  []string
				fresh                     []string
				vanished, plans, retained int
			)
			for cur.Remaining() > 0 {
				from := cur.pos
				chunk, _ := c.ExportChunk(cur, maxEntries, scratch)
				var want []string
				for _, id := range cur.ids[from:cur.pos] {
					if c.lookup(id, Signature(id)) != nil {
						want = append(want, id)
					} else {
						vanished++
					}
				}
				var got []string
				for i := range chunk {
					st := &chunk[i]
					got = append(got, st.ID)
					e := c.lookup(st.ID, Signature(st.ID))
					if e == nil {
						t.Fatalf("exported %q, which is not in the cache", st.ID)
					}
					if st.ID != e.ID || st.Size != e.Size || st.Cost != e.Cost || st.Class != e.Class ||
						st.Resident != e.resident || st.TotalRefs != e.window.totalRefs() ||
						!slices.Equal(st.RefTimes, e.window.exportInto(nil)) ||
						!slices.Equal(st.Relations, e.Relations) ||
						!reflect.DeepEqual(st.Payload, e.Payload) || !reflect.DeepEqual(st.Plan, e.Plan) {
						t.Fatalf("exported state differs from the live entry:\n  got  %+v\n  live %+v", *st, *e)
					}
					if len(st.Relations) > 0 && &st.Relations[0] == &e.Relations[0] {
						t.Fatalf("%q: exported Relations alias the live entry's slice", st.ID)
					}
					if st.Plan != nil {
						plans++
					}
					if !st.Resident {
						retained++
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("chunk exported %q, want the live fenced IDs %q", got, want)
				}
				exported = append(exported, got...)
				scratch = chunk

				// Change the cache before the next chunk: hit the last
				// resident entry still ahead of the cursor, invalidate the
				// last other one, and admit a new query.
				var hit, gone *Entry
				for _, id := range slices.Backward(cur.ids[cur.pos:]) {
					e := c.lookup(id, Signature(id))
					switch {
					case e == nil:
					case hit == nil && e.resident:
						hit = e
					case gone == nil:
						gone = e
					}
				}
				now++
				if hit != nil {
					if ok, _ := c.Reference(Request{QueryID: hit.ID, Time: now, Size: hit.Size, Cost: hit.Cost}); !ok {
						t.Fatalf("re-reference of resident %q missed", hit.ID)
					}
				}
				if gone != nil {
					c.Invalidate("only/" + gone.ID)
				}
				newID := CompressID(fmt.Sprintf("fresh query %d", len(fresh)))
				c.Reference(Request{QueryID: newID, Time: now, Size: 1, Cost: 1e6,
					Relations: []string{"fresh", "only/" + newID}, Payload: "fresh rows"})
				if c.lookup(newID, Signature(newID)) == nil {
					t.Fatalf("%q was not recorded", newID)
				}
				fresh = append(fresh, newID)
			}

			if !slices.IsSorted(exported) || len(slices.Compact(slices.Clone(exported))) != len(exported) {
				t.Fatal("export is not strictly ascending")
			}
			for _, id := range fresh {
				if slices.Contains(exported, id) {
					t.Fatalf("%q was admitted after ExportBegin but exported", id)
				}
			}
			if plans == 0 || retained == 0 {
				t.Fatalf("export carried %d plans and %d retained records; the test needs both", plans, retained)
			}
			if size != 0 && vanished == 0 {
				t.Fatal("no fenced entry vanished between chunks")
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
