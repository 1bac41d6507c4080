package core

import "container/heap"

// EvictorKind selects the victim-search data structure. Both produce
// candidates in the policy's (tier, key) order; they trade exactness for
// speed and are compared in the A3 ablation benchmark.
type EvictorKind int

const (
	// ScanEvictor recomputes every entry's rank at selection time and
	// orders only the victims. Exact; for k victims among n residents an
	// O(n) rank pass plus an O(k log k) select (O(n log k) if residents
	// happen to be visited in descending rank order), with no per-miss
	// allocation beyond the victim list.
	ScanEvictor EvictorKind = iota
	// HeapEvictor keeps per-policy heaps with lazily refreshed keys.
	// Near-exact for time-decaying keys (LNC profits), exact for static
	// keys, O(k log n) per eviction.
	HeapEvictor
)

// String names the evictor kind.
func (k EvictorKind) String() string {
	if k == HeapEvictor {
		return "heap"
	}
	return "scan"
}

// evictor maintains the set of resident entries and selects eviction
// candidates.
type evictor interface {
	add(e *Entry, now float64)
	remove(e *Entry)
	touch(e *Entry, now float64)
	// candidates returns a minimal prefix of resident entries, in eviction
	// order, whose sizes sum to at least need. The call must not mutate
	// residency; the cache decides whether to actually evict. It returns
	// nil when the resident set cannot cover need.
	candidates(need int64, now float64) []*Entry
	count() int
	// residents returns the resident entries in no particular order. The
	// slice is the evictor's own: callers must not modify or retain it.
	residents() []*Entry
}

func newEvictor(kind EvictorKind, r ranker) evictor {
	if kind == HeapEvictor {
		return &heapEvictor{r: r, items: make(map[*Entry]*heapItem)}
	}
	return &scanEvictor{r: r}
}

// residentList is the dense list of resident entries both evictors keep:
// Entry.evIdx holds each member's position, so removal is a swap with the
// last element instead of a map delete, and walking the residents touches
// one contiguous slice.
type residentList struct {
	list []*Entry
}

func (l *residentList) add(e *Entry) {
	e.evIdx = len(l.list)
	l.list = append(l.list, e)
}

// remove drops e and reports whether it was a member.
func (l *residentList) remove(e *Entry) bool {
	i, last := e.evIdx, len(l.list)-1
	if i > last || l.list[i] != e {
		return false
	}
	l.list[i] = l.list[last]
	l.list[i].evIdx = i
	l.list[last] = nil
	l.list = l.list[:last]
	return true
}

func (l *residentList) count() int          { return len(l.list) }
func (l *residentList) residents() []*Entry { return l.list }

// ranked is an entry with its eviction rank at selection time.
type ranked struct {
	e    *Entry
	tier int
	key  float64
}

// before is the eviction order: ascending (tier, key), ties broken by ID
// so that selection never depends on the order residents are visited in.
func (a ranked) before(b ranked) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.e.ID < b.e.ID
}

// scanEvictor: exact selection. Every resident is ranked at selection
// time, but only the prefix that will be returned is ever ordered.
type scanEvictor struct {
	r ranker
	residentList
	// prefix is the selection scratch, reused across calls and empty (all
	// zero) between them.
	prefix []ranked
}

func (s *scanEvictor) add(e *Entry, _ float64) { s.residentList.add(e) }
func (s *scanEvictor) remove(e *Entry)         { s.residentList.remove(e) }
func (s *scanEvictor) touch(*Entry, float64)   {}

func (s *scanEvictor) candidates(need int64, now float64) []*Entry {
	if cap(s.prefix) < len(s.list) {
		s.prefix = make([]ranked, 0, cap(s.list))
	}
	h := s.selectPrefix(need, now)
	if len(h) == 0 {
		return nil
	}
	// The victim list outlives the call (events carry it), so it is the
	// one allocation. The max-heap drains last victim first.
	out := make([]*Entry, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = h[0].e
		h = popMax(h)
	}
	return out
}

// selectPrefix ranks every resident once and returns, as a max-heap in
// the scratch, the minimal prefix of the eviction order whose sizes cover
// need, or nil when all residents together cannot. The heap holds that
// prefix for the residents visited so far: one outside it is dismissed by
// a single comparison against the heap's top, one inside it is pushed and
// whatever the prefix no longer needs is popped.
//
//watchman:hotpath
func (s *scanEvictor) selectPrefix(need int64, now float64) []ranked {
	h := s.prefix[:0]
	var freed int64
	for _, e := range s.list {
		tier, key := s.r.rank(e, now)
		x := ranked{e, tier, key}
		if freed >= need && (len(h) == 0 || !x.before(h[0])) {
			continue
		}
		h = pushMax(h, x)
		freed += e.Size
		for len(h) > 0 && freed-h[0].e.Size >= need {
			freed -= h[0].e.Size
			h = popMax(h)
		}
	}
	if freed < need {
		clear(h)
		return nil
	}
	return h
}

// pushMax adds x to the max-heap h, which must have spare capacity.
//
//watchman:hotpath
func pushMax(h []ranked, x ranked) []ranked {
	i := len(h)
	h = h[:i+1]
	for i > 0 {
		parent := (i - 1) / 2
		if !h[parent].before(x) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	return h
}

// popMax removes the top of the max-heap h, zeroing the slot it vacates.
//
//watchman:hotpath
func popMax(h []ranked) []ranked {
	n := len(h) - 1
	x := h[n]
	h[n] = ranked{}
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[child].before(h[r]) {
			child = r
		}
		if !x.before(h[child]) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = x
	return h
}

// heapEvictor: lazy min-heap keyed by (tier, key) captured at push time.
// Keys may go stale between touches (LNC profits decay as time advances);
// candidates refreshes stale keys at most once per entry per call, which
// bounds the work and makes the selection near-exact.
type heapItem struct {
	e    *Entry // nil when the item is stale
	tier int
	key  float64
	id   string
}

type itemHeap []*heapItem

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].tier != h[j].tier {
		return h[i].tier < h[j].tier
	}
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].id < h[j].id
}
func (h itemHeap) Swap(i, j int)          { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)            { *h = append(*h, x.(*heapItem)) }
func (h *itemHeap) Pop() any              { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h itemHeap) Peek() *heapItem        { return h[0] }
func (h itemHeap) Empty() bool            { return len(h) == 0 }
func (h itemHeap) stale(i *heapItem) bool { return i.e == nil }

type heapEvictor struct {
	r ranker
	residentList
	h     itemHeap
	items map[*Entry]*heapItem
}

func (he *heapEvictor) push(e *Entry, now float64) {
	t, k := he.r.rank(e, now)
	it := &heapItem{e: e, tier: t, key: k, id: e.ID}
	he.items[e] = it
	heap.Push(&he.h, it)
}

func (he *heapEvictor) add(e *Entry, now float64) {
	he.push(e, now)
	he.residentList.add(e)
}

func (he *heapEvictor) remove(e *Entry) {
	if he.residentList.remove(e) {
		he.items[e].e = nil // lazy delete
		delete(he.items, e)
	}
}

func (he *heapEvictor) touch(e *Entry, now float64) {
	if it, ok := he.items[e]; ok {
		it.e = nil
	}
	he.push(e, now)
}

// compact drops stale items when they dominate the heap.
func (he *heapEvictor) compact() {
	if len(he.h) < 64 || len(he.h) < 4*he.count() {
		return
	}
	live := he.h[:0]
	for _, it := range he.h {
		if it.e != nil {
			live = append(live, it)
		}
	}
	he.h = live
	heap.Init(&he.h)
}

func (he *heapEvictor) candidates(need int64, now float64) []*Entry {
	he.compact()
	var out []*Entry
	var popped []*heapItem
	refreshed := make(map[*Entry]bool)
	var freed int64
	for freed < need && !he.h.Empty() {
		it := heap.Pop(&he.h).(*heapItem)
		e := it.e
		if e == nil {
			continue // stale
		}
		if !refreshed[e] {
			refreshed[e] = true
			// Refresh the key once per entry per call: stored LNC profits
			// decay between touches, so re-rank and re-insert to restore
			// ordering against the rest of the heap.
			t, k := he.r.rank(e, now)
			if t != it.tier || k != it.key {
				it.e = nil
				fresh := &heapItem{e: e, tier: t, key: k, id: e.ID}
				he.items[e] = fresh
				heap.Push(&he.h, fresh)
				continue
			}
		}
		out = append(out, e)
		popped = append(popped, it)
		freed += e.Size
	}
	// Non-destructive: restore popped items.
	for _, it := range popped {
		heap.Push(&he.h, it)
	}
	if freed >= need {
		return out
	}
	return nil
}
