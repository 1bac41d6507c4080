package storage

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/relation"
)

func testDB() *relation.Database {
	return relation.TPCD(0.001, 0)
}

func TestPageIDRoundtrip(t *testing.T) {
	p := NewPager(testDB())
	for _, rel := range p.db.RelationNames() {
		for _, page := range []int64{0, p.Pages(rel) - 1} {
			id := p.PageID(rel, page)
			gotRel, gotPage, err := p.Decode(id)
			if err != nil {
				t.Fatal(err)
			}
			if gotRel != rel || gotPage != page {
				t.Fatalf("roundtrip (%s,%d) -> (%s,%d)", rel, page, gotRel, gotPage)
			}
		}
	}
}

func TestPageIDsDistinctAcrossRelations(t *testing.T) {
	p := NewPager(testDB())
	seen := make(map[buffer.PageID]string)
	for _, rel := range p.db.RelationNames() {
		for page := int64(0); page < p.Pages(rel); page++ {
			id := p.PageID(rel, page)
			if prev, ok := seen[id]; ok {
				t.Fatalf("page ID collision between %s and %s", prev, rel)
			}
			seen[id] = rel
		}
	}
	if int64(len(seen)) != p.TotalPages() {
		t.Fatalf("distinct IDs %d != total pages %d", len(seen), p.TotalPages())
	}
}

func TestPageIDPanics(t *testing.T) {
	p := NewPager(testDB())
	for name, f := range map[string]func(){
		"unknown relation": func() { p.PageID("nope", 0) },
		"negative page":    func() { p.PageID("orders", -1) },
		"page overflow":    func() { p.PageID("orders", p.Pages("orders")) },
		"unknown pages":    func() { p.Pages("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDecodeErrors(t *testing.T) {
	p := NewPager(testDB())
	if _, _, err := p.Decode(buffer.PageID(1<<63 - 1)); err == nil {
		t.Error("absurd relation ID must fail to decode")
	}
	// A page number past the relation's end.
	bad := p.PageID("region", 0) + buffer.PageID(1000000)
	if _, _, err := p.Decode(bad); err == nil {
		t.Error("out-of-range page must fail to decode")
	}
}

func TestEmitAll(t *testing.T) {
	p := NewPager(testDB())
	var got []buffer.PageID
	p.EmitAll("orders", SinkFunc(func(id buffer.PageID) { got = append(got, id) }))
	if int64(len(got)) != p.Pages("orders") {
		t.Fatalf("emitted %d pages, want %d", len(got), p.Pages("orders"))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("sequential scan must emit ascending page IDs")
		}
	}
}

func TestEmitRange(t *testing.T) {
	p := NewPager(testDB())
	var n int
	p.EmitRange("orders", 2, 5, SinkFunc(func(buffer.PageID) { n++ }))
	if n != 4 {
		t.Fatalf("emitted %d pages, want 4", n)
	}
}

func TestEmitSetDeduplicates(t *testing.T) {
	p := NewPager(testDB())
	var got []buffer.PageID
	p.EmitSet("orders", []int64{5, 1, 5, 3, 1}, SinkFunc(func(id buffer.PageID) { got = append(got, id) }))
	if len(got) != 3 {
		t.Fatalf("emitted %d pages, want 3 after dedup", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("EmitSet must emit ascending page IDs")
		}
	}
}

func TestCountingSink(t *testing.T) {
	var c CountingSink
	c.Reference(1)
	c.Reference(2)
	c.Reference(1)
	if c.N != 3 {
		t.Fatalf("N = %d, want 3", c.N)
	}
}

func TestPoolSink(t *testing.T) {
	pool := buffer.NewPool(2)
	s := &PoolSink{Pool: pool}
	s.Reference(1)
	s.Reference(2)
	s.Reference(1)
	st := pool.Stats()
	if st.Reads != 3 || st.Hits != 1 {
		t.Fatalf("pool stats = %+v", st)
	}
}

func TestPageOfRow(t *testing.T) {
	db := testDB()
	p := NewPager(db)
	ord := db.MustRelation("orders")
	rpp := ord.RowsPerPage(db.PageSize)
	if got := p.PageOfRow(ord, 0); got != 0 {
		t.Fatalf("row 0 on page %d", got)
	}
	if got := p.PageOfRow(ord, rpp); got != 1 {
		t.Fatalf("row %d on page %d, want 1", rpp, got)
	}
	if got := p.PageOfRow(ord, ord.Rows-1); got != p.Pages("orders")-1 {
		t.Fatalf("last row on page %d, want %d", got, p.Pages("orders")-1)
	}
}

func TestTotalPages(t *testing.T) {
	p := NewPager(testDB())
	var sum int64
	for _, rel := range p.db.RelationNames() {
		sum += p.Pages(rel)
	}
	if p.TotalPages() != sum {
		t.Fatalf("TotalPages = %d, want %d", p.TotalPages(), sum)
	}
}

// Decode unpacks a PageID into its relation name and page number: the
// inverse of PageID the round-trip tests check it against.
func (p *Pager) Decode(id buffer.PageID) (rel string, page int64, err error) {
	relID := uint64(id) >> pageBits
	if relID >= uint64(len(p.relNames)) {
		return "", 0, fmt.Errorf("storage: page ID %d has unknown relation %d", id, relID)
	}
	page = int64(uint64(id) & (1<<pageBits - 1))
	rel = p.relNames[int(relID)]
	if page >= p.pages[relID] {
		return "", 0, fmt.Errorf("storage: page ID %d out of range for relation %s", id, rel)
	}
	return rel, page, nil
}
