// Package storage maps relations onto pages and routes page references to a
// consumer, typically the buffer pool. It is the glue between the query
// engine (which thinks in relations and row indices) and the buffer manager
// (which thinks in opaque page IDs).
package storage

import (
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/relation"
)

// PageSink consumes page references emitted by the engine. The buffer pool
// is the usual sink; tests use recording sinks.
type PageSink interface {
	// Reference notes one logical read of the page.
	Reference(id buffer.PageID)
}

// SinkFunc adapts a function to the PageSink interface.
type SinkFunc func(buffer.PageID)

// Reference calls the underlying function.
func (f SinkFunc) Reference(id buffer.PageID) { f(id) }

// CountingSink counts references without retaining them.
type CountingSink struct {
	// N is the number of references observed.
	N int64
}

// Reference increments the counter.
func (c *CountingSink) Reference(buffer.PageID) { c.N++ }

// PoolSink feeds references into a buffer pool.
type PoolSink struct {
	// Pool is the destination buffer pool.
	Pool *buffer.Pool
}

// Reference reads the page through the pool.
func (s *PoolSink) Reference(id buffer.PageID) { s.Pool.Read(id) }

// Pager assigns each relation a dense ID and packs (relation, page) pairs
// into buffer.PageID values. Page numbers are local to their relation.
type Pager struct {
	db       *relation.Database
	relIDs   map[string]uint64
	relNames []string
	pages    []int64 // pages per relation, indexed by relation ID
}

// pageBits is the number of low bits of a PageID holding the page number,
// leaving the high bits for the relation ID. 2^40 pages × 4 KiB = 4 PiB per
// relation, far beyond any configuration this simulator runs.
const pageBits = 40

// NewPager builds a pager over the database. Relation IDs are assigned in
// sorted name order so they are stable across runs.
func NewPager(db *relation.Database) *Pager {
	names := db.RelationNames()
	p := &Pager{
		db:       db,
		relIDs:   make(map[string]uint64, len(names)),
		relNames: names,
		pages:    make([]int64, len(names)),
	}
	for i, n := range names {
		p.relIDs[n] = uint64(i)
		p.pages[i] = db.Relations[n].Pages(db.PageSize)
	}
	return p
}

// PageID packs a relation name and relation-local page number. It panics on
// unknown relations or out-of-range pages: both indicate a bug in plan
// construction, not runtime input.
func (p *Pager) PageID(rel string, page int64) buffer.PageID {
	id, ok := p.relIDs[rel]
	if !ok {
		panic(fmt.Sprintf("storage: unknown relation %q", rel))
	}
	if page < 0 || page >= p.pages[id] {
		panic(fmt.Sprintf("storage: relation %s: page %d out of range [0,%d)", rel, page, p.pages[id]))
	}
	return buffer.PageID(id<<pageBits | uint64(page))
}

// Pages returns the number of pages of the named relation.
func (p *Pager) Pages(rel string) int64 {
	id, ok := p.relIDs[rel]
	if !ok {
		panic(fmt.Sprintf("storage: unknown relation %q", rel))
	}
	return p.pages[id]
}

// TotalPages returns the number of data pages across all relations.
func (p *Pager) TotalPages() int64 {
	var t int64
	for _, n := range p.pages {
		t += n
	}
	return t
}

// PageOfRow returns the relation-local page holding the given row index.
func (p *Pager) PageOfRow(rel *relation.Relation, row int64) int64 {
	return row / rel.RowsPerPage(p.db.PageSize)
}

// EmitRange references pages [lo, hi] of the relation in ascending order.
func (p *Pager) EmitRange(rel string, lo, hi int64, sink PageSink) {
	for pg := lo; pg <= hi; pg++ {
		sink.Reference(p.PageID(rel, pg))
	}
}

// EmitAll references every page of the relation in ascending order, as a
// sequential scan would.
func (p *Pager) EmitAll(rel string, sink PageSink) {
	p.EmitRange(rel, 0, p.Pages(rel)-1, sink)
}

// EmitSet references the given relation-local pages in ascending order,
// deduplicating first; the slice is modified in place.
func (p *Pager) EmitSet(rel string, pages []int64, sink PageSink) {
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var prev int64 = -1
	for _, pg := range pages {
		if pg == prev {
			continue
		}
		prev = pg
		sink.Reference(p.PageID(rel, pg))
	}
}
