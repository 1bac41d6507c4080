package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The sort oracle's side of the column methods: it keeps no columns, so
// it computes the least profit straight from the entries and has nothing
// of its own to check.

func (s *sortEvictor) minProfit(now float64) float64 {
	least := math.Inf(1)
	for e := range s.entries {
		if p := e.Profit(now); p < least {
			least = p
		}
	}
	return least
}

func (s *sortEvictor) check() error { return nil }

// sameVictims returns an error unless ev and the oracle choose the same
// victims for need at now, pointer for pointer, and, under a profit
// policy, report the same least profit, bit for bit.
func sameVictims(ev, oracle evictor, r ranker, need int64, now float64) error {
	got, want := ev.candidates(need, now), oracle.candidates(need, now)
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("need %d: %d victims (nil=%v), oracle %d (nil=%v)",
			need, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("need %d: victim %d is %s, oracle says %s", need, i, got[i].ID, want[i].ID)
		}
	}
	if r.byProfit() {
		if g, w := ev.minProfit(now), oracle.minProfit(now); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("least profit %v, oracle %v", g, w)
		}
	}
	return nil
}

// sameSelection runs sameVictims at needs from 1 to one past the resident
// total.
func sameSelection(ev, oracle evictor, r ranker, now float64, rng *rand.Rand) error {
	rs := oracle.residents()
	if ev.count() != len(rs) {
		return fmt.Errorf("evictor tracks %d residents, oracle %d", ev.count(), len(rs))
	}
	if len(rs) == 0 {
		return nil
	}
	var total int64
	for _, e := range rs {
		total += e.Size
	}
	for _, need := range []int64{1, rs[rng.Intn(len(rs))].Size, total / 3, total, total + 1} {
		if err := sameVictims(ev, oracle, r, need, now); err != nil {
			return err
		}
	}
	return nil
}

// touchLogScript drives ev and a fresh sort oracle through the three
// shapes the touch log has to survive, comparing selections after each,
// and returns the first disagreement:
//   - more touches than residents between two selections, so the log
//     overflows to a full refresh;
//   - swap-removes that move residents whose positions the log holds;
//   - a removed (retained) entry re-admitted with a new size and cost.
//
// Half of the entries are twins of a live one, so rank ties are common.
func touchLogScript(ev evictor, r ranker, seed int64) error {
	const k = 3
	rng := rand.New(rand.NewSource(seed))
	oracle := newSortEvictor(r)
	now := 1.0
	var out []*Entry // removed, kept for re-admission
	for i := 0; i < 60; i++ {
		e := mkEntry(fmt.Sprintf("e%03d", rng.Intn(1000)*1000+i), rng.Int63n(200)+1, float64(rng.Intn(50)+1), k, now)
		if rs := oracle.residents(); len(rs) > 0 && rng.Intn(2) == 0 {
			twin := rs[rng.Intn(len(rs))]
			e.Size, e.Cost, e.window = twin.Size, twin.Cost, twin.window.clone()
		}
		e.rc = r.rc
		ev.add(e, now)
		oracle.add(e, now)
	}
	touch := func(e *Entry) {
		e.window.record(now)
		ev.touch(e, now)
		oracle.touch(e, now)
	}
	for round := 0; round < 25; round++ { // each round removes three, re-admits one
		now += float64(rng.Intn(4)) / 2

		// Overflow: three touches per resident before the next selection.
		rs := ev.residents()
		for i := 0; i < 3*len(rs); i++ {
			touch(rs[rng.Intn(len(rs))])
		}
		if s, ok := ev.(*scanEvictor); ok && !s.all {
			return errors.New("three touches per resident did not overflow the log")
		}
		if err := sameSelection(ev, oracle, r, now+1, rng); err != nil {
			return fmt.Errorf("round %d, after overflow: %w", round, err)
		}

		// Swap-removes: touch the tail, then remove from the front, so the
		// logged tail positions move into the removed slots.
		now += 0.5
		for j := 0; j < 4; j++ {
			rs := ev.residents()
			touch(rs[len(rs)-1-j])
		}
		for j := 0; j < 3; j++ {
			e := ev.residents()[rng.Intn(4)]
			ev.remove(e)
			oracle.remove(e)
			out = append(out, e)
		}
		if err := sameSelection(ev, oracle, r, now+1, rng); err != nil {
			return fmt.Errorf("round %d, after swap-removes: %w", round, err)
		}

		// Re-admission: a removed entry picks up a reference while out,
		// then comes back with a new size and cost.
		i := rng.Intn(len(out))
		e := out[i]
		out[i] = out[len(out)-1]
		out = out[:len(out)-1]
		e.window.record(now)
		e.Size, e.Cost = rng.Int63n(200)+1, float64(rng.Intn(50)+1)
		ev.add(e, now)
		oracle.add(e, now)
		touch(ev.residents()[rng.Intn(ev.count())])
		if err := sameSelection(ev, oracle, r, now+1, rng); err != nil {
			return fmt.Errorf("round %d, after re-admission: %w", round, err)
		}
	}
	return nil
}

// rankers is every policy × tier mode, ranking with a non-zero λ floor.
func rankers() []ranker {
	var out []ranker
	for _, policy := range []PolicyKind{LRU, LRUK, LFU, LCS, LNCR, LNCRA} {
		for _, strict := range []bool{false, true} {
			out = append(out, ranker{policy: policy, strictTiers: strict, rc: &rateContext{minDt: 0.75}})
		}
	}
	return out
}

// TestScanEvictorTouchLogMatchesSortOracle is the touch log's differential
// test: the scan evictor must choose the sort oracle's victims through log
// overflow, swap-removes of logged positions and re-admission, and its
// columns must check clean afterwards.
func TestScanEvictorTouchLogMatchesSortOracle(t *testing.T) {
	for i, r := range rankers() {
		t.Run(fmt.Sprintf("%s/strict=%v", r.policy, r.strictTiers), func(t *testing.T) {
			ev := newEvictor(r)
			if err := touchLogScript(ev, r, int64(i)+1); err != nil {
				t.Fatal(err)
			}
			if err := ev.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// skipTouch is the scan evictor with a planted bug: a hit is not logged,
// so its column stays stale.
type skipTouch struct{ *scanEvictor }

func (skipTouch) touch(*Entry, float64) {}

// TestTouchLogOracleCatchesSkippedTouch shows the differential above is
// sharp enough to catch a touch that skips the log.
func TestTouchLogOracleCatchesSkippedTouch(t *testing.T) {
	for i, r := range rankers() {
		if r.policy == LCS {
			continue // ranks by size alone: a reference changes nothing
		}
		if err := touchLogScript(skipTouch{&scanEvictor{r: r}}, r, int64(i)+1); err == nil {
			t.Errorf("%s/strict=%v: a touch that skips the log went unnoticed", r.policy, r.strictTiers)
		}
	}
}

// TestCheckInvariantsColumns covers the two invariants the columns rest
// on: every resident shares the cache's rate context, and every column
// not pending in the log equals its entry's rank inputs.
func TestCheckInvariantsColumns(t *testing.T) {
	c, err := replayRandom(Config{Capacity: 2000, K: 3, Policy: LNCRA}, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	e := c.Entries()[0]

	// A logged reference is pending, not stale.
	e.window.record(c.Clock())
	c.ev.touch(e, c.Clock())
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("logged reference: %v", err)
	}

	// An unlogged one leaves the column stale once the log is consumed.
	c.ev.minProfit(c.Clock())
	e.window.record(c.Clock() + 1)
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "evictor column") {
		t.Fatalf("unlogged reference: got %v, want a stale-column error", err)
	}
	c.ev.touch(e, c.Clock())
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after logging it: %v", err)
	}

	// A resident with a rate context of its own ranks by another floor.
	rc := e.rc
	e.rc = &rateContext{minDt: rc.minDt}
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "rate context") {
		t.Fatalf("foreign rate context: got %v", err)
	}
	e.rc = rc
}

// FuzzScanEvictor decodes its input into add, remove, touch and candidates
// operations over a small pool of entries, half of them twins, and
// requires the scan evictor to choose the sort oracle's victims pointer
// for pointer and its columns to check clean after every operation.
//
// Byte 0 picks the policy and tier mode, byte 1 the λ floor; every later
// pair is one operation (high bits of the first byte) on one pool entry
// (the rest), with the second byte as its argument.
func FuzzScanEvictor(f *testing.F) {
	f.Add([]byte{4, 1, 0, 1, 1, 2, 2, 3, 64, 1, 65, 0, 128, 9, 192, 1})
	f.Add([]byte{12, 1, 0, 0, 1, 1, 8, 0, 128, 1, 136, 0, 192, 64, 129, 2, 64, 0, 192, 127})
	f.Add([]byte{5, 3, 0, 9, 8, 9, 64, 0, 72, 0, 64, 1, 192, 200, 128, 7, 0, 5, 192, 3})
	f.Add([]byte{13, 0, 0, 1, 1, 1, 2, 1, 3, 1, 64, 1, 65, 1, 66, 1, 67, 1, 68, 1, 192, 255})
	f.Add([]byte{1, 2, 0, 4, 8, 4, 64, 0, 128, 3, 0, 100, 192, 50, 135, 0, 192, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		policies := []PolicyKind{LRU, LRUK, LFU, LCS, LNCR, LNCRA}
		rc := &rateContext{minDt: float64(data[1]%4) / 2}
		r := ranker{policy: policies[int(data[0]%8)%len(policies)], strictTiers: data[0]&8 != 0, rc: rc}
		ev, oracle := newEvictor(r), newSortEvictor(r)

		// Entry 8+i is a twin of entry i: same size, cost and window until
		// the stream sets them apart, so only the ID breaks their ties.
		const half = 8
		pool := make([]*Entry, 2*half)
		for i := range half {
			pool[i] = mkEntry(fmt.Sprintf("p%02d", i), int64(10*(i+1)), float64(half-i), 3, 0)
			pool[i].rc = rc
			twin := *pool[i]
			twin.ID = fmt.Sprintf("p%02d", half+i)
			twin.window = pool[i].window.clone()
			pool[half+i] = &twin
		}
		resident := make([]bool, len(pool))
		now := 0.0
		for i := 2; i+1 < len(data); i += 2 {
			op, x := data[i]>>6, data[i+1]
			j := int(data[i]&63) % len(pool)
			e := pool[j]
			switch op {
			case 0: // add, re-admitting with a new size and cost when x says so
				if resident[j] {
					continue
				}
				if x&1 != 0 {
					e.Size, e.Cost = int64(x)+1, float64(x>>2)
				}
				ev.add(e, now)
				oracle.add(e, now)
				resident[j] = true
			case 1:
				if !resident[j] {
					continue
				}
				ev.remove(e)
				oracle.remove(e)
				resident[j] = false
			case 2: // a reference; only a resident's is a touch
				now += float64(x%4) / 2
				e.window.record(now)
				if resident[j] {
					ev.touch(e, now)
					oracle.touch(e, now)
				}
			case 3:
				var total int64
				for k, in := range resident {
					if in {
						total += pool[k].Size
					}
				}
				if err := sameVictims(ev, oracle, r, 1+int64(x)*total/128, now+float64(x%3)); err != nil {
					t.Fatalf("op %d: %v", i/2, err)
				}
			}
			if err := ev.check(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}
