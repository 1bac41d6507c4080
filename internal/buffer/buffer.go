// Package buffer implements the page buffer manager WATCHMAN cooperates
// with (§3 of the paper). It is a classic LRU buffer pool over fixed-size
// frames, extended with the hint interface the paper describes: WATCHMAN may
// instruct the pool to demote pages that have become redundant (because the
// retrieved sets referencing them are now cached) to the eviction end of the
// LRU chain, freeing buffer space faster.
package buffer

import "fmt"

// PageID identifies a page in the database. The storage layer packs a
// relation number and a page number into it; the pool treats it as opaque.
type PageID uint64

// frame is one buffered page, threaded on the pool's intrusive LRU list.
// prev points toward the MRU end, next toward the LRU (eviction) end.
type frame struct {
	id         PageID
	prev, next *frame
}

// Stats aggregates buffer pool activity counters.
type Stats struct {
	Reads     int64 // page read requests
	Hits      int64 // requests satisfied without a fault
	Evictions int64 // frames reclaimed
	Demotions int64 // frames moved to the LRU end by hints
}

// HitRatio returns Hits/Reads, or 0 when no reads happened.
func (s Stats) HitRatio() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// Pool is an LRU page buffer pool. It is not safe for concurrent use; the
// simulator drives it from a single goroutine, matching the paper's
// single-stream trace replay.
type Pool struct {
	capacity int
	frames   map[PageID]*frame
	// head/tail are sentinels: head.next is the MRU frame, tail.prev the
	// LRU (next eviction victim).
	head, tail frame
	stats      Stats
}

// NewPool creates a pool with room for capacity pages. It panics if
// capacity is not positive, since a pool that cannot hold a single page is
// a configuration error.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: non-positive capacity %d", capacity))
	}
	p := &Pool{
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
	p.head.next = &p.tail
	p.tail.prev = &p.head
	return p
}

// Stats returns a copy of the activity counters.
func (p *Pool) Stats() Stats { return p.stats }

func (p *Pool) unlink(f *frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

func (p *Pool) pushFront(f *frame) {
	f.next = p.head.next
	f.prev = &p.head
	p.head.next.prev = f
	p.head.next = f
}

func (p *Pool) pushBack(f *frame) {
	f.prev = p.tail.prev
	f.next = &p.tail
	p.tail.prev.next = f
	p.tail.prev = f
}

// Read requests the page, faulting it in if absent, and returns whether the
// request was a hit. On a hit or a fault the page becomes most recently
// used.
//
//watchman:hotpath
func (p *Pool) Read(id PageID) (hit bool) {
	p.stats.Reads++
	if f, ok := p.frames[id]; ok {
		p.stats.Hits++
		p.unlink(f)
		p.pushFront(f)
		return true
	}
	if len(p.frames) >= p.capacity {
		victim := p.tail.prev // the least recently used frame
		p.unlink(victim)
		delete(p.frames, victim.id)
		p.stats.Evictions++
	}
	//lint:ignore hotpathalloc the fault path must materialize a frame; the hit path above is allocation-free
	f := &frame{id: id}
	p.frames[id] = f
	p.pushFront(f)
	return false
}

// Demote moves the page, if buffered, to the eviction end of the LRU chain.
// This is the hint operation from the paper: "the buffer manager takes
// advantage of the hints sent from WATCHMAN and moves selected pages to the
// end of the LRU chain." Demoting a non-resident page is a no-op, since the
// hint may arrive after the page was already evicted.
func (p *Pool) Demote(id PageID) {
	f, ok := p.frames[id]
	if !ok {
		return
	}
	p.unlink(f)
	p.pushBack(f)
	p.stats.Demotions++
}

// LRUOrder returns the buffered page IDs from most to least recently used.
// It exists for tests and diagnostics.
func (p *Pool) LRUOrder() []PageID {
	out := make([]PageID, 0, len(p.frames))
	for f := p.head.next; f != &p.tail; f = f.next {
		out = append(out, f.id)
	}
	return out
}
