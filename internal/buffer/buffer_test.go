package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoolBasics(t *testing.T) {
	p := NewPool(2)
	if p.capacity != 2 || len(p.frames) != 0 {
		t.Fatal("fresh pool state wrong")
	}
	if p.Read(1) {
		t.Fatal("first read hit")
	}
	if !p.Read(1) {
		t.Fatal("second read must hit")
	}
	s := p.Stats()
	if s.Reads != 2 || s.Hits != 1 || s.HitRatio() != 0.5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := NewPool(3)
	for _, id := range []PageID{1, 2, 3} {
		p.Read(id)
	}
	p.Read(1) // 1 becomes MRU; LRU order now 1,3,2
	p.Read(4) // evicts 2
	if p.contains(2) {
		t.Fatal("LRU page not evicted")
	}
	for _, id := range []PageID{1, 3, 4} {
		if !p.contains(id) {
			t.Fatalf("page %d unexpectedly evicted", id)
		}
	}
	if got := p.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d", got)
	}
}

func TestPoolLRUOrder(t *testing.T) {
	p := NewPool(3)
	p.Read(10)
	p.Read(20)
	p.Read(30)
	p.Read(10) // MRU
	got := p.LRUOrder()
	want := []PageID{10, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LRU order = %v, want %v", got, want)
		}
	}
}

func TestPoolDemote(t *testing.T) {
	p := NewPool(3)
	p.Read(1)
	p.Read(2)
	p.Read(3) // LRU order: 3,2,1
	p.Demote(3)
	// 3 is now the eviction victim despite being most recently used.
	p.Read(4)
	if p.contains(3) {
		t.Fatal("demoted page must be evicted first")
	}
	if !p.contains(1) || !p.contains(2) {
		t.Fatal("non-demoted pages evicted")
	}
	if p.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d", p.Stats().Demotions)
	}
}

func TestPoolDemoteNonResident(t *testing.T) {
	p := NewPool(2)
	p.Demote(99) // no-op
	if p.Stats().Demotions != 0 {
		t.Fatal("demoting a non-resident page must not count")
	}
}

func TestPoolCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewPool(0)
}

// contains reports whether the page is buffered, without touching
// recency state or counters.
func (p *Pool) contains(id PageID) bool {
	_, ok := p.frames[id]
	return ok
}

// modelLRU is a trivial reference implementation: a slice ordered MRU→LRU.
type modelLRU struct {
	cap   int
	pages []PageID
}

func (m *modelLRU) read(id PageID) bool {
	for i, p := range m.pages {
		if p == id {
			copy(m.pages[1:i+1], m.pages[:i])
			m.pages[0] = id
			return true
		}
	}
	if len(m.pages) == m.cap {
		m.pages = m.pages[:m.cap-1]
	}
	m.pages = append([]PageID{id}, m.pages...)
	return false
}

func (m *modelLRU) demote(id PageID) {
	for i, p := range m.pages {
		if p == id {
			m.pages = append(append(append([]PageID{}, m.pages[:i]...), m.pages[i+1:]...), id)
			return
		}
	}
}

func TestPoolMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(8) + 1
		pool := NewPool(capacity)
		model := &modelLRU{cap: capacity}
		for op := 0; op < 500; op++ {
			id := PageID(rng.Intn(20))
			if rng.Intn(5) == 0 {
				pool.Demote(id)
				model.demote(id)
				continue
			}
			if pool.Read(id) != model.read(id) {
				return false
			}
		}
		got := pool.LRUOrder()
		if len(got) != len(model.pages) {
			return false
		}
		for i := range got {
			if got[i] != model.pages[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoolNeverExceedsCapacityQuick(t *testing.T) {
	f := func(ids []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		p := NewPool(capacity)
		for _, id := range ids {
			p.Read(PageID(id % 64))
			if len(p.frames) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
