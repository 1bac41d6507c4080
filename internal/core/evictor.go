package core

import (
	"fmt"
	"math"
	"slices"
)

// EvictorKind names the victim-search structure. ScanEvictor is the only
// one; Config.Evictor survives for callers that still name it, and New
// rejects any other value.
type EvictorKind int

// ScanEvictor recomputes every entry's rank at selection time and orders
// only the victims. Exact; for k victims among n residents an O(n) rank
// pass plus an O(k log k) select (O(n log k) if residents happen to be
// visited in descending rank order), with no per-miss allocation beyond
// the victim list. The rank pass reads each resident's rank inputs from
// dense, pointer-free columns kept beside the resident list, not from the
// entries; a hit only logs which column went stale.
const ScanEvictor EvictorKind = 0

// evictor maintains the set of resident entries and selects eviction
// candidates.
type evictor interface {
	add(e *Entry, now float64)
	remove(e *Entry)
	// touch tells the evictor that e's reference window changed.
	touch(e *Entry, now float64)
	// candidates returns a minimal prefix of resident entries, in eviction
	// order, whose sizes sum to at least need. The call must not mutate
	// residency; the cache decides whether to actually evict. It returns
	// nil when the resident set cannot cover need.
	candidates(need int64, now float64) []*Entry
	// minProfit returns the least profit among the residents at now, or
	// +Inf when there are none. Only the LNC policies ask.
	minProfit(now float64) float64
	count() int
	// residents returns the resident entries in no particular order. The
	// slice is the evictor's own: callers must not modify or retain it.
	residents() []*Entry
	// check reports the first inconsistency in the evictor's own state.
	check() error
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

// rankCol is one resident's rank inputs. For the profit policies key and
// n are the oldest window time t_K and the window count, so the rank is
// profit(n, key, cost, size, now, minDt); for the others, whose rank does
// not depend on now, they are the rank itself (key, tier). 32 bytes and no
// pointer, so a slice of them is dense and never scanned by the GC.
type rankCol struct {
	key  float64
	n    int
	cost float64
	size int64
}

// column captures e's rank inputs.
func (r ranker) column(e *Entry) rankCol {
	if !r.byProfit() {
		tier, key := r.rank(e, 0)
		return rankCol{key: key, n: tier, size: e.Size}
	}
	return rankCol{key: e.window.kth(), n: e.window.count(), cost: e.Cost, size: e.Size}
}

// scanEvictor: exact selection. Every resident is ranked at selection
// time, but only the prefix that will be returned is ever ordered.
// Residents live in one dense list with Entry.evIdx holding each member's
// position, so removal is a swap with the last element instead of a map
// delete, and the rank pass walks one contiguous slice of columns.
type scanEvictor struct {
	r    ranker
	list []*Entry
	// cols[i] is list[i]'s rank inputs, exact except at the positions a
	// refresh is pending for: those in log, or every position when all is
	// set. A hit appends its entry's position to log rather than writing
	// the column; refresh rewrites the logged columns before each pass.
	// Positions may repeat or point past the list's end: refreshing one
	// twice, or skipping one that no longer exists, is harmless. Once the
	// log would hold more positions than there are residents it is
	// dropped for all. add keeps cap(log) ≥ len(list), so touch never
	// grows it.
	cols []rankCol
	log  []int32
	all  bool
	// prefix is the selection scratch, reused across calls and empty (all
	// zero) between them.
	prefix []ranked
}

func (s *scanEvictor) add(e *Entry, _ float64) {
	e.evIdx = int32(len(s.list))
	s.list = append(s.list, e)
	s.cols = append(s.cols, s.r.column(e))
	if cap(s.log) < len(s.list) {
		s.log = slices.Grow(s.log, cap(s.list)-len(s.log))
	}
}

// remove swaps the last resident into e's position and refreshes its
// column there: a position the log holds for it now lies past the end.
func (s *scanEvictor) remove(e *Entry) {
	i, last := int(e.evIdx), len(s.list)-1
	if i > last || s.list[i] != e {
		return
	}
	moved := s.list[last]
	s.list[i] = moved
	moved.evIdx = int32(i)
	s.cols[i] = s.r.column(moved)
	s.list[last] = nil
	s.list = s.list[:last]
	s.cols = s.cols[:last]
}

// touch logs e's position for the next refresh.
//
//watchman:hotpath
func (s *scanEvictor) touch(e *Entry, _ float64) {
	if s.all {
		return
	}
	n := len(s.log)
	if n >= len(s.list) {
		s.all = true
		s.log = s.log[:0]
		return
	}
	s.log = s.log[:n+1]
	s.log[n] = e.evIdx
}

func (s *scanEvictor) count() int          { return len(s.list) }
func (s *scanEvictor) residents() []*Entry { return s.list }

// refresh rewrites every column a refresh is pending for.
//
//watchman:hotpath
func (s *scanEvictor) refresh() {
	if s.all {
		for i, e := range s.list {
			s.cols[i] = s.r.column(e)
		}
		s.all = false
	} else {
		for _, i := range s.log {
			if int(i) < len(s.list) {
				s.cols[i] = s.r.column(s.list[i])
			}
		}
	}
	s.log = s.log[:0]
}

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
// whatever the prefix no longer needs is popped. Ranks come from the
// columns; an entry is read only when it enters the heap or ties the top.
//
//watchman:hotpath
func (s *scanEvictor) selectPrefix(need int64, now float64) []ranked {
	s.refresh()
	r, cols, list := s.r, s.cols, s.list
	byProfit, minDt := r.byProfit(), r.rc.floor()
	h := s.prefix[:0]
	var freed int64
	for i := range cols {
		c := &cols[i]
		tier, key := c.n, c.key
		if byProfit {
			tier, key = r.profitTier(c.n), profit(c.n, c.key, c.cost, c.size, now, minDt)
		}
		if freed >= need {
			if len(h) == 0 || tier > h[0].tier || (tier == h[0].tier && key > h[0].key) {
				continue
			}
			if !(ranked{list[i], tier, key}).before(h[0]) {
				continue
			}
		}
		h = pushMax(h, ranked{list[i], tier, key})
		freed += c.size
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

// minProfit reads profit inputs, which only the profit policies' columns
// hold. Its one caller, pruneRetained, runs it only for them: LRU, LFU and
// LCS keep no retained records, and LRU-K prunes them by age.
func (s *scanEvictor) minProfit(now float64) float64 {
	least := math.Inf(1)
	s.refresh()
	minDt := s.r.rc.floor()
	for i := range s.cols {
		c := &s.cols[i]
		if p := profit(c.n, c.key, c.cost, c.size, now, minDt); p < least {
			least = p
		}
	}
	return least
}

func (s *scanEvictor) check() error {
	if len(s.cols) != len(s.list) {
		return fmt.Errorf("evictor has %d columns for %d residents", len(s.cols), len(s.list))
	}
	pending := make([]bool, len(s.list))
	for _, i := range s.log {
		if int(i) < len(pending) {
			pending[i] = true
		}
	}
	for i, e := range s.list {
		if int(e.evIdx) != i {
			return fmt.Errorf("resident %q at evictor position %d records position %d", e.ID, i, e.evIdx)
		}
		if want := s.r.column(e); !s.all && !pending[i] && s.cols[i] != want {
			return fmt.Errorf("resident %q: evictor column %+v, entry has %+v", e.ID, s.cols[i], want)
		}
	}
	return nil
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
