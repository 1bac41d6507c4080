package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sortEvictor is the selection scanEvictor used to run, kept as the
// reference the differential tests compare against: copy every resident
// out of a map, rank them all, sort them all, take the covering prefix.
type sortEvictor struct {
	r       ranker
	entries map[*Entry]struct{}
}

func newSortEvictor(r ranker) *sortEvictor {
	return &sortEvictor{r: r, entries: make(map[*Entry]struct{})}
}

func (s *sortEvictor) add(e *Entry, _ float64) { s.entries[e] = struct{}{} }
func (s *sortEvictor) remove(e *Entry)         { delete(s.entries, e) }
func (s *sortEvictor) touch(*Entry, float64)   {}
func (s *sortEvictor) count() int              { return len(s.entries) }

func (s *sortEvictor) residents() []*Entry {
	all := make([]*Entry, 0, len(s.entries))
	for e := range s.entries {
		all = append(all, e)
	}
	return all
}

func (s *sortEvictor) candidates(need int64, now float64) []*Entry {
	rs := make([]ranked, 0, len(s.entries))
	for e := range s.entries {
		t, k := s.r.rank(e, now)
		rs = append(rs, ranked{e, t, k})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].tier != rs[j].tier {
			return rs[i].tier < rs[j].tier
		}
		if rs[i].key != rs[j].key {
			return rs[i].key < rs[j].key
		}
		return rs[i].e.ID < rs[j].e.ID
	})
	var out []*Entry
	var freed int64
	for _, r := range rs {
		if freed >= need {
			return out
		}
		out = append(out, r.e)
		freed += r.e.Size
	}
	if freed >= need {
		return out
	}
	return nil
}

// TestScanEvictorMatchesSortOracle drives the scan evictor and the sort
// oracle through the same random add/remove/touch sequence and requires
// pointer-identical victim lists at every probe. Half of the entries are
// built as exact twins of a live one, so (tier, key) ties are common and
// the ID tie-break decides; IDs are drawn in random order so neither
// insertion order nor list position can stand in for it.
func TestScanEvictorMatchesSortOracle(t *testing.T) {
	for _, policy := range []PolicyKind{LRU, LRUK, LFU, LCS, LNCR, LNCRA} {
		for _, strict := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/strict=%v", policy, strict), func(t *testing.T) {
				const k = 3
				rng := rand.New(rand.NewSource(int64(policy)*2 + 11))
				r := ranker{policy: policy, strictTiers: strict}
				scan, oracle := newEvictor(r), newSortEvictor(r)
				ids := rng.Perm(2000)
				var live []*Entry
				now := 0.0
				for step := 0; step < 1500; step++ {
					now += float64(rng.Intn(3)) / 2 // repeated timestamps tie LRU keys
					switch op := rng.Intn(10); {
					case op < 5 || len(live) == 0:
						e := mkEntry(fmt.Sprintf("e%04d", ids[step]), rng.Int63n(200)+1, float64(rng.Intn(50)+1), k, now)
						if len(live) > 0 && rng.Intn(2) == 0 {
							twin := live[rng.Intn(len(live))]
							e.Size, e.Cost, e.window = twin.Size, twin.Cost, twin.window.clone()
						}
						live = append(live, e)
						scan.add(e, now)
						oracle.add(e, now)
					case op < 7:
						i := rng.Intn(len(live))
						e := live[i]
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						scan.remove(e)
						oracle.remove(e)
					default:
						e := live[rng.Intn(len(live))]
						e.window.record(now)
						scan.touch(e, now)
						oracle.touch(e, now)
					}
					if step%25 != 24 || len(live) == 0 {
						continue
					}
					if scan.count() != len(live) {
						t.Fatalf("step %d: scan tracks %d entries, want %d", step, scan.count(), len(live))
					}
					var total int64
					for _, e := range live {
						total += e.Size
					}
					for _, need := range []int64{1, live[rng.Intn(len(live))].Size, total / 2, total, total + 1} {
						got, want := scan.candidates(need, now+1), oracle.candidates(need, now+1)
						if (got == nil) != (want == nil) || len(got) != len(want) {
							t.Fatalf("step %d need %d of %d: %d victims (nil=%v), oracle %d (nil=%v)",
								step, need, total, len(got), got == nil, len(want), want == nil)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("step %d need %d: victim %d is %s, oracle says %s", step, need, i, got[i].ID, want[i].ID)
							}
						}
					}
				}
			})
		}
	}
}

// loggedEvent is what the replay test compares of each event.
type loggedEvent struct {
	kind    EventKind
	id      string
	victims string
	profit  uint64
}

type eventLog []loggedEvent

func (l *eventLog) Emit(ev Event) {
	if ev.Kind == EventInvalidate {
		// Invalidate walks the signature index, a map: the order of one
		// call's events differs between any two runs. Stats counts them.
		return
	}
	ids := make([]string, len(ev.Victims))
	for i, v := range ev.Victims {
		ids[i] = v.ID
	}
	*l = append(*l, loggedEvent{ev.Kind, ev.ID, strings.Join(ids, "\x00"), math.Float64bits(ev.Profit)})
}

// zipfTrace draws a Zipf(1.01) stream over pop queries with log-normal
// sizes and costs, the shape of the bench's zipf_evict_http workload.
func zipfTrace(pop, n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	type query struct {
		id   string
		size int64
		cost float64
	}
	qs := make([]query, pop)
	for k := range qs {
		qs[k] = query{fmt.Sprintf("zipf query %d", k),
			int64(2048*math.Exp(rng.NormFloat64())) + 1,
			math.Round(200*math.Exp(1.5*rng.NormFloat64())) + 1}
	}
	zipf := rand.NewZipf(rng, 1.01, 1, uint64(pop-1))
	tr := &trace.Trace{Records: make([]trace.Record, n)}
	for i := range tr.Records {
		q := qs[zipf.Uint64()]
		tr.Records[i] = trace.Record{Seq: int64(i), Time: float64(i+1) / 1000,
			QueryID: q.id, Size: q.size, Cost: q.cost, Relations: []string{fmt.Sprintf("dim%02d", i%7)}}
	}
	return tr
}

// workingSetBytes sums the sizes of the trace's distinct queries.
func workingSetBytes(tr *trace.Trace) int64 {
	distinct := make(map[string]int64)
	for i := range tr.Records {
		distinct[tr.Records[i].QueryID] = tr.Records[i].Size
	}
	var total int64
	for _, s := range distinct {
		total += s
	}
	return total
}

// requireSameReplay fails unless two replays of one trace — the subject's
// and the oracle's — ended in equal Stats after identical event streams,
// and the trace made the cache both hit and evict.
func requireSameReplay(t *testing.T, label string, got, oracle *Cache, gotLog, oracleLog eventLog) {
	t.Helper()
	if g, w := got.Stats(), oracle.Stats(); g != w {
		t.Fatalf("%s: Stats differ:\n subject %+v\n oracle  %+v", label, g, w)
	}
	if st := oracle.Stats(); st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("%s: %d evictions, %d hits: the replay proves nothing", label, st.Evictions, st.Hits)
	}
	if len(gotLog) != len(oracleLog) {
		t.Fatalf("%s: %d events, oracle %d", label, len(gotLog), len(oracleLog))
	}
	for i := range gotLog {
		if gotLog[i] != oracleLog[i] {
			t.Fatalf("%s: event %d differs:\n subject %+v\n oracle  %+v", label, i, gotLog[i], oracleLog[i])
		}
	}
}

// TestScanEvictorReplayMatchesSortOracle replays whole traces through two
// caches that differ only in the evictor — the scan evictor and the sort
// oracle injected in its place — and requires equal Stats and identical
// event streams: every admission decision, every victim list in order,
// every eviction profit bit for bit, and (through RetainedDropped) every
// pruning pass, which reads the evictor's resident list.
func TestScanEvictorReplayMatchesSortOracle(t *testing.T) {
	_, multiclass, err := workload.GenerateMulticlass(0, workload.MulticlassConfig{
		Config: workload.Config{Queries: 4000, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*trace.Trace{"multiclass": multiclass, "zipf": zipfTrace(1<<13, 12000, 3)}
	configs := []Config{
		{K: 4, Policy: LNCRA},
		{K: 4, Policy: LNCRA, StrictTiers: true, MetadataOverhead: 64, RetainedPruneEvery: 50},
		{K: 2, Policy: LRUK},
		{K: 1, Policy: LCS},
	}
	for name, tr := range traces {
		for _, cfg := range configs {
			cfg.Capacity = workingSetBytes(tr) / 50
			var logs [2]eventLog
			var caches [2]*Cache
			for i := range caches {
				cfg.Sink = &logs[i]
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					c.ev = newSortEvictor(ranker{policy: cfg.Policy, strictTiers: cfg.StrictTiers})
				}
				for j := range tr.Records {
					rec := &tr.Records[j]
					c.Reference(Request{QueryID: rec.QueryID, Time: rec.Time, Class: rec.Class,
						Size: rec.Size, Cost: rec.Cost, Relations: rec.Relations})
					if j%1500 == 1499 {
						c.Invalidate(rec.Relations...)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				caches[i] = c
			}
			requireSameReplay(t, fmt.Sprintf("%s/%s strict=%v", name, cfg.Policy, cfg.StrictTiers),
				caches[0], caches[1], logs[0], logs[1])
		}
	}
}

// TestScanEvictorCandidatesAllocatesOnlyVictims pins the selection to one
// allocation per call, the returned victim list. That list must be fresh
// each time: admission and rejection events retain it.
func TestScanEvictorCandidatesAllocatesOnlyVictims(t *testing.T) {
	ev := newEvictor(ranker{policy: LNCRA})
	rng := rand.New(rand.NewSource(5))
	var total int64
	for i := 0; i < 500; i++ {
		e := mkEntry(fmt.Sprintf("e%03d", i), rng.Int63n(100)+1, float64(rng.Intn(1000)+1), 4, float64(i))
		total += e.Size
		ev.add(e, float64(i))
	}
	first := ev.candidates(total, 600) // sizes the scratch for the largest possible prefix
	if len(first) != 500 {
		t.Fatalf("full cover returned %d of 500 entries", len(first))
	}
	for _, need := range []int64{1, total / 4, total} {
		var got []*Entry
		allocs := testing.AllocsPerRun(50, func() { got = ev.candidates(need, 600) })
		if allocs != 1 && !raceflag.Enabled {
			t.Errorf("need %d: candidates allocates %v times per call, want 1 (the victim list)", need, allocs)
		}
		if again := ev.candidates(need, 600); &again[0] == &got[0] {
			t.Errorf("need %d: two calls returned the same backing array", need)
		}
	}
}

func TestScanEvictorMinimalPrefix(t *testing.T) {
	ev := newEvictor(ranker{policy: LCS})
	sizes := []int64{100, 300, 50, 200}
	for i, s := range sizes {
		ev.add(mkEntry(fmt.Sprintf("e%d", i), s, 1, 1, float64(i)), float64(i))
	}
	// LCS evicts largest first: 300, then 200 covers need 400.
	c := ev.candidates(400, 10)
	if len(c) != 2 || c[0].Size != 300 || c[1].Size != 200 {
		t.Fatalf("candidates = %v", sizesOf(c))
	}
}

func sizesOf(es []*Entry) []int64 {
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e.Size
	}
	return out
}

func TestScanEvictorInsufficient(t *testing.T) {
	ev := newEvictor(ranker{policy: LRU})
	ev.add(mkEntry("a", 10, 1, 1, 1), 1)
	if c := ev.candidates(100, 5); c != nil {
		t.Fatalf("expected nil when space cannot be covered, got %v", sizesOf(c))
	}
}

func TestScanEvictorRemove(t *testing.T) {
	ev := newEvictor(ranker{policy: LRU})
	a := mkEntry("a", 10, 1, 1, 1)
	b := mkEntry("b", 10, 1, 1, 2)
	ev.add(a, 1)
	ev.add(b, 2)
	ev.remove(a)
	if ev.count() != 1 {
		t.Fatalf("count = %d, want 1", ev.count())
	}
	c := ev.candidates(10, 5)
	if len(c) != 1 || c[0] != b {
		t.Fatal("removed entry still produced as candidate")
	}
}

func TestScanEvictorDeterministicTies(t *testing.T) {
	// Entries with identical rank keys must be ordered by ID.
	ev := newEvictor(ranker{policy: LRU})
	for _, id := range []string{"zeta", "alpha", "mid"} {
		ev.add(mkEntry(id, 10, 1, 1, 5), 5)
	}
	c := ev.candidates(20, 9)
	if len(c) != 2 || c[0].ID != "alpha" || c[1].ID != "mid" {
		t.Fatalf("tie-break order wrong: %v", []string{c[0].ID, c[1].ID})
	}
}
