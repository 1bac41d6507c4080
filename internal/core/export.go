package core

// Chunked state export, the one entry-copy path: ExportState drains a
// cursor in a single chunk, and a concurrent wrapper that cannot afford
// one long critical section per shard captures the cache-level header
// once (ExportBegin), then drains the entries in bounded slices
// (ExportChunk), re-acquiring its lock around each call. The cursor's
// sorted ID list is the epoch fence: entries present at ExportBegin are
// visited exactly once, in ascending ID order, so a quiesced chunked
// export concatenates to exactly the ExportState output. Entries that vanish
// between chunks (eviction, invalidation) are skipped; entries mutated
// between chunks export their current state — both shapes RestoreState
// tolerates (see docs/PERSISTENCE.md, "Streaming capture & consistency").

import "sort"

// ExportCursor is an in-progress chunked export of one cache. Create it
// with ExportBegin and drain it with ExportChunk; both must run under
// the same external synchronization that guards every other cache call.
type ExportCursor struct {
	// Header is the cache-level state captured at ExportBegin: every
	// CacheState field except Entries, which stays nil — entries travel
	// through ExportChunk instead.
	Header *CacheState

	// ids is the fence: the sorted IDs of every record present at
	// ExportBegin. pos is the next one to visit.
	ids []string
	pos int
}

// Remaining returns how many fenced IDs have not been visited yet. It
// reaches zero exactly when ExportChunk has drained the cursor; some of
// the remaining IDs may still export to nothing if their entries vanish
// before their chunk.
func (cur *ExportCursor) Remaining() int { return len(cur.ids) - cur.pos }

// ExportBegin starts a chunked export: it captures the cache-level
// header (clock, λ context, Stats) and fences the set of records to
// visit, but copies no entries — that is ExportChunk's job, so the
// caller's lock hold here is O(index) pointer walking, not O(bytes).
func (c *Cache) ExportBegin() *ExportCursor {
	cur := &ExportCursor{
		Header: &CacheState{
			Capacity:         c.cfg.Capacity,
			K:                c.cfg.K,
			Policy:           c.cfg.Policy,
			Clock:            c.now,
			FirstTime:        c.firstTime,
			HaveFirst:        c.haveFirst,
			MinDt:            c.rc.minDt,
			MissesSincePrune: c.missesSincePrune,
			Stats:            c.stats,
		},
		ids: make([]string, 0, c.resident+len(c.retained)),
	}
	for _, head := range c.index {
		for e := head; e != nil; e = e.sigNext {
			cur.ids = append(cur.ids, e.ID)
		}
	}
	sort.Strings(cur.ids)
	return cur
}

// ExportChunk exports up to maxEntries of the cursor's remaining records
// into scratch, reusing its elements' RefTimes and Relations capacity,
// and returns the filled prefix plus whether records remain. The
// returned slice aliases scratch and is valid only until the next call
// with the same scratch — the caller must consume (encode) it first.
// Fenced entries that no longer exist are skipped; ones that mutated
// since ExportBegin export their current state.
func (c *Cache) ExportChunk(cur *ExportCursor, maxEntries int, scratch []EntryState) ([]EntryState, bool) {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	filled := 0
	for filled < maxEntries && cur.pos < len(cur.ids) {
		id := cur.ids[cur.pos]
		cur.pos++
		e := c.lookup(id, Signature(id))
		if e == nil {
			continue
		}
		if filled < len(scratch) {
			exportEntryInto(e, &scratch[filled])
		} else {
			scratch = append(scratch, EntryState{})
			exportEntryInto(e, &scratch[len(scratch)-1])
		}
		filled++
	}
	return scratch[:filled], cur.pos < len(cur.ids)
}

// exportEntryInto copies one entry into st, overwriting every field and
// reusing st's slice capacity. Payload and Plan are shared interface
// values: both are immutable by system-wide convention.
func exportEntryInto(e *Entry, st *EntryState) {
	st.ID = e.ID
	st.Size = e.Size
	st.Cost = e.Cost
	st.Class = e.Class
	st.Resident = e.resident
	st.RefTimes = e.window.exportInto(st.RefTimes[:0])
	st.TotalRefs = e.window.totalRefs()
	st.Payload = e.Payload
	st.Plan = e.Plan
	st.Relations = st.Relations[:0]
	st.Relations = append(st.Relations, e.Relations...)
}
