package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
)

func hitEvent(class int, cost float64, rels []string) core.Event {
	return core.Event{Kind: core.EventHit, Class: class, ID: "q", Size: 10, Cost: cost, Relations: rels}
}

func TestRegistryAggregates(t *testing.T) {
	r := NewRegistry()
	r.Emit(hitEvent(0, 100, []string{"lineitem"}))
	r.Emit(hitEvent(2, 50, []string{"lineitem", "orders"}))
	r.Emit(core.Event{Kind: core.EventMissAdmitted, Class: 0, Cost: 30})
	r.Emit(core.Event{Kind: core.EventMissRejected, Class: 1, Cost: 20})
	r.Emit(core.Event{Kind: core.EventExternalMiss, Class: 1, Cost: 10})
	r.Emit(core.Event{Kind: core.EventEvict, Class: 0, Cost: 30})
	r.Emit(core.Event{Kind: core.EventInvalidate, Class: 2, Relations: []string{"orders"}})

	s := r.Snapshot()
	if s.References() != 5 {
		t.Fatalf("references = %d, want 5", s.References())
	}
	if s.Hits != 2 || s.MissesAdmitted != 1 || s.MissesRejected != 1 || s.ExternalMisses != 1 {
		t.Fatalf("outcome partition wrong: %+v", s)
	}
	if s.Evictions != 1 || s.Invalidations != 1 {
		t.Fatalf("departures wrong: %+v", s)
	}
	if s.CostTotal != 210 || s.CostSaved != 150 || s.BytesServed != 20 {
		t.Fatalf("cost accounting wrong: %+v", s)
	}
	if got := s.CSR(); got != 150.0/210.0 {
		t.Fatalf("CSR = %g", got)
	}

	if len(s.Classes) != 3 {
		t.Fatalf("classes = %d, want 3 (0..2)", len(s.Classes))
	}
	c0, c1, c2 := s.Classes[0], s.Classes[1], s.Classes[2]
	if c0.References != 2 || c0.Hits != 1 || c0.CostTotal != 130 || c0.CostSaved != 100 {
		t.Fatalf("class 0 wrong: %+v", c0)
	}
	if c1.References != 2 || c1.ExternalMisses != 1 || c1.CostTotal != 30 {
		t.Fatalf("class 1 wrong: %+v", c1)
	}
	if c2.References != 1 || c2.CSR() != 1 || c2.Invalidations != 1 {
		t.Fatalf("class 2 wrong: %+v", c2)
	}

	if len(s.Relations) != 2 {
		t.Fatalf("relations = %d, want 2", len(s.Relations))
	}
	// Sorted ascending by name: lineitem, orders.
	li, ord := s.Relations[0], s.Relations[1]
	if li.Relation != "lineitem" || li.References != 2 || li.CostSaved != 150 {
		t.Fatalf("lineitem wrong: %+v", li)
	}
	if ord.Relation != "orders" || ord.References != 1 || ord.Invalidations != 1 {
		t.Fatalf("orders wrong: %+v", ord)
	}
}

func TestRegistryEmitAllocationFree(t *testing.T) {
	r := NewRegistry()
	rels := []string{"lineitem", "orders"}
	ev := hitEvent(1, 42, rels)
	r.Emit(ev) // warm the class table and relation cells
	allocs := testing.AllocsPerRun(1000, func() { r.Emit(ev) })
	if allocs != 0 && !raceflag.Enabled {
		t.Fatalf("Emit allocates %.1f objects per event on the warm path", allocs)
	}
}

func TestRegistryConcurrentEmit(t *testing.T) {
	r := NewRegistry()
	sinks := []core.EventSink{r.ShardSink(0), r.ShardSink(1), r.ShardSink(2), r.ShardSink(3)}
	const perSink = 5000
	var wg sync.WaitGroup
	for i, s := range sinks {
		wg.Add(1)
		go func(i int, s core.EventSink) {
			defer wg.Done()
			for j := 0; j < perSink; j++ {
				s.Emit(hitEvent(i%3, 1, []string{"lineitem"}))
			}
		}(i, s)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Hits != int64(len(sinks)*perSink) {
		t.Fatalf("hits = %d, want %d", s.Hits, len(sinks)*perSink)
	}
	if s.CostTotal != float64(len(sinks)*perSink) {
		t.Fatalf("cost total = %g, want %d (atomic float adds lost updates)", s.CostTotal, len(sinks)*perSink)
	}
	if len(s.ShardReferences) != len(sinks) {
		t.Fatalf("shard refs = %v", s.ShardReferences)
	}
	for i, n := range s.ShardReferences {
		if n != perSink {
			t.Fatalf("shard %d refs = %d, want %d", i, n, perSink)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	// Relation names are arbitrary client strings; the exposition must
	// escape exactly per the Prometheus text format (\\, \", \n) — Go
	// quoting rules (\t, \xNN) would break the whole scrape.
	r.Emit(hitEvent(0, 1, []string{"a\tb", `c\d`, "e\"f", "g\nh"}))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"{relation=\"a\tb\"}", // tab passes through raw (legal in label values)
		`{relation="c\\d"}`,   // backslash doubled
		`{relation="e\"f"}`,   // quote escaped
		`{relation="g\nh"}`,   // newline escaped, not literal
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, `\t`) {
		t.Error("Go-style \\t escape leaked into the exposition")
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, "relation=") && strings.Count(line, " ") != 1 &&
			!strings.HasPrefix(line, "#") {
			t.Errorf("label escaping broke line structure: %q", line)
		}
	}
}

func TestClassIndexClamped(t *testing.T) {
	r := NewRegistry()
	// An absurd class index must not drive an unbounded dense allocation:
	// it collapses into the top tracked cell.
	r.Emit(hitEvent(1<<30, 100, nil))
	r.Emit(hitEvent(-5, 10, nil))
	s := r.Snapshot()
	if len(s.Classes) != MaxTrackedClasses {
		t.Fatalf("class table = %d cells, want clamp at %d", len(s.Classes), MaxTrackedClasses)
	}
	if top := s.Classes[MaxTrackedClasses-1]; top.References != 1 || top.CostSaved != 100 {
		t.Fatalf("overflow class not charged to top cell: %+v", top)
	}
	if s.Classes[0].References != 1 {
		t.Fatalf("negative class not clamped to 0: %+v", s.Classes[0])
	}
}

func TestRelationCardinalityCapped(t *testing.T) {
	r := NewRegistry()
	const distinct = MaxTrackedRelations + 500
	for i := 0; i < distinct; i++ {
		r.Emit(hitEvent(0, 1, []string{"rel_" + strconv.Itoa(i)}))
	}
	s := r.Snapshot()
	// The cap plus the overflow cell bounds the map; every event past the
	// cap lands in the overflow cell, so nothing is lost from the sums.
	if got := len(s.Relations); got > MaxTrackedRelations+1 {
		t.Fatalf("relation cells = %d, want ≤ %d", got, MaxTrackedRelations+1)
	}
	var refs int64
	var overflow *RelationSnapshot
	for i := range s.Relations {
		refs += s.Relations[i].References
		if s.Relations[i].Relation == OverflowRelation {
			overflow = &s.Relations[i]
		}
	}
	if refs != distinct {
		t.Fatalf("relation references sum to %d, want %d", refs, distinct)
	}
	if overflow == nil || overflow.References != 500 {
		t.Fatalf("overflow cell = %+v, want 500 references", overflow)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(0.0002) // ≤ 0.00025 bucket
	h.Observe(0.003)  // ≤ 0.005
	h.Observe(99)     // +Inf
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Sum; got < 99.003 || got > 99.004 {
		t.Fatalf("sum = %g", got)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("0.00025 bucket = %d, want 1", s.Counts[1])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, s.Count)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	sink := r.ShardSink(0)
	sink.Emit(hitEvent(0, 100, []string{"lineitem"}))
	sink.Emit(core.Event{Kind: core.EventMissAdmitted, Class: 1, Cost: 30})
	r.ObserveLoad(0.002, false)
	r.ObserveLoad(0.5, true)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"watchman_references_total 2",
		"watchman_hits_total 1",
		"watchman_misses_admitted_total 1",
		"watchman_external_misses_total 0",
		"watchman_cost_saved_total 100",
		"watchman_loader_errors_total 1",
		`watchman_class_csr{class="0"} 1`,
		`watchman_class_csr{class="1"} 0`,
		`watchman_relation_cost_total{relation="lineitem"} 100`,
		`watchman_shard_references_total{shard="0"} 2`,
		`watchman_load_latency_seconds_bucket{le="+Inf"} 2`,
		"watchman_load_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Structural checks: every non-comment line is "name[{labels}] value",
	// every metric family is preceded by HELP and TYPE, and histogram
	// buckets are cumulative (non-decreasing).
	var prevBucket int64 = -1
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("sample line %q does not split into name and value", line)
		}
		if strings.Contains(fields[0], "_bucket{le=") && !strings.Contains(fields[0], "+Inf") {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", fields[1], err)
			}
			if v < prevBucket {
				t.Fatalf("histogram buckets not cumulative at %q", line)
			}
			prevBucket = v
		}
	}
}
