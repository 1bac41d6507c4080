package core

// EvictorKind names the victim-search structure. ScanEvictor is the only
// one; Config.Evictor survives for callers that still name it, and New
// rejects any other value.
type EvictorKind int

// ScanEvictor recomputes every entry's rank at selection time and orders
// only the victims. Exact; for k victims among n residents an O(n) rank
// pass plus an O(k log k) select (O(n log k) if residents happen to be
// visited in descending rank order), with no per-miss allocation beyond
// the victim list.
const ScanEvictor EvictorKind = 0

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

func newEvictor(r ranker) evictor { return &scanEvictor{r: r} }

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
// Residents live in one dense list with Entry.evIdx holding each member's
// position, so removal is a swap with the last element instead of a map
// delete, and the rank pass walks one contiguous slice.
type scanEvictor struct {
	r    ranker
	list []*Entry
	// prefix is the selection scratch, reused across calls and empty (all
	// zero) between them.
	prefix []ranked
}

func (s *scanEvictor) add(e *Entry, _ float64) {
	e.evIdx = len(s.list)
	s.list = append(s.list, e)
}

func (s *scanEvictor) remove(e *Entry) {
	i, last := e.evIdx, len(s.list)-1
	if i > last || s.list[i] != e {
		return
	}
	s.list[i] = s.list[last]
	s.list[i].evIdx = i
	s.list[last] = nil
	s.list = s.list[:last]
}

func (s *scanEvictor) touch(*Entry, float64) {}
func (s *scanEvictor) count() int            { return len(s.list) }
func (s *scanEvictor) residents() []*Entry   { return s.list }

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
