package watchman_test

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (BenchmarkFigure2 … BenchmarkFigure7), the optimality and
// ablation experiments from DESIGN.md, and micro-benchmarks of the cache's
// hot paths. Figure benchmarks report their headline values through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every result
// of the evaluation in one run.
//
// Benchmark scale: the figure benches default to 6 000-query traces (the
// paper's full 17 000-query runs are produced by `watchman experiments` or
// `go run ./cmd/watchman experiments`); shapes are stable at this size and
// the whole suite completes in a few minutes.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	watchman "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	benchQueries       = 6000
	benchBufferQueries = 2000
	benchSeed          = 42
)

// benchSuite is shared across figure benchmarks so the traces and the
// standard sweep are generated once.
var benchSuite = experiments.NewSuite(experiments.Options{
	Queries:       benchQueries,
	BufferQueries: benchBufferQueries,
	Seed:          benchSeed,
})

// benchTraces memoizes raw traces for the micro/ablation benches.
var benchTraces = map[string]*trace.Trace{}

func benchTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	if tr, ok := benchTraces[name]; ok {
		return tr
	}
	var tr *trace.Trace
	var err error
	switch name {
	case "tpcd":
		tr, err = benchSuite.TPCD()
	case "setquery":
		tr, err = benchSuite.SetQuery()
	case "multiclass":
		_, tr, err = workload.GenerateMulticlass(0, workload.MulticlassConfig{
			Config: workload.Config{Queries: benchQueries, Seed: benchSeed},
		})
	default:
		b.Fatalf("unknown trace %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[name] = tr
	return tr
}

// reportCell parses a table cell and reports it as a benchmark metric.
func reportCell(b *testing.B, tb *metrics.Table, row, col int, unit string) {
	b.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		return // non-numeric cell (e.g. byte sizes); skip
	}
	b.ReportMetric(v, unit)
}

// BenchmarkFigure2InfiniteCache regenerates the infinite-cache table (E1).
func BenchmarkFigure2InfiniteCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := benchSuite.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		reportCell(b, tb, 0, 1, "tpcd-CSRinf")
		reportCell(b, tb, 0, 2, "tpcd-HRinf")
		reportCell(b, tb, 1, 1, "sq-CSRinf")
		reportCell(b, tb, 1, 2, "sq-HRinf")
	}
}

// BenchmarkFigure3ImpactOfK regenerates the impact-of-K curves (E2).
func BenchmarkFigure3ImpactOfK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbs, err := benchSuite.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		// LNC-RA CSR at K=1 and K=5 on TPC-D: the paper's improvement.
		reportCell(b, tbs[0], 0, 1, "tpcd-K1")
		reportCell(b, tbs[0], 4, 1, "tpcd-K5")
	}
}

// BenchmarkFigure4CostSavings regenerates the CSR-vs-cache-size curves (E3,
// including ablation A1: the LNC-RA vs LNC-R columns differ exactly by the
// admission algorithm).
func BenchmarkFigure4CostSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbs, err := benchSuite.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		// CSR at 1% cache: LNC-RA vs LRU, both traces.
		reportCell(b, tbs[0], 3, 1, "tpcd-LNCRA")
		reportCell(b, tbs[0], 3, 3, "tpcd-LRU")
		reportCell(b, tbs[1], 3, 1, "sq-LNCRA")
		reportCell(b, tbs[1], 3, 3, "sq-LRU")
	}
}

// BenchmarkFigure5HitRatios regenerates the HR-vs-cache-size curves (E4).
func BenchmarkFigure5HitRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbs, err := benchSuite.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		reportCell(b, tbs[0], 3, 1, "tpcd-LNCRA")
		reportCell(b, tbs[0], 3, 3, "tpcd-LRU")
	}
}

// BenchmarkFigure6Fragmentation regenerates the cache-utilization table (E5).
func BenchmarkFigure6Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbs, err := benchSuite.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		// Utilization at 1% cache on TPC-D: LNC-RA vs LRU.
		reportCell(b, tbs[0], 2, 1, "tpcd-LNCRA-util%")
		reportCell(b, tbs[0], 2, 3, "tpcd-LRU-util%")
	}
}

// BenchmarkFigure7BufferHints regenerates the buffer-cooperation experiment
// (E6). This is the heaviest benchmark: each iteration streams millions of
// page references through the pool for every p₀ value.
func BenchmarkFigure7BufferHints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := benchSuite.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		reportCell(b, tb, 0, 1, "HR-nohints")
		reportCell(b, tb, 1, 1, "HR-p100")
		reportCell(b, tb, 3, 1, "HR-p60")
		reportCell(b, tb, 6, 1, "HR-p0")
	}
}

// BenchmarkOptimalityLNCStar regenerates the §2.3 optimality check (E7).
func BenchmarkOptimalityLNCStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := benchSuite.Optimality(100, 12)
		if err != nil {
			b.Fatal(err)
		}
		reportCell(b, tb, 0, 2, "mean-ratio")
	}
}

// BenchmarkAblationRetainedInfo measures retained reference information on
// vs off (A2).
func BenchmarkAblationRetainedInfo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := benchSuite.AblationRetained()
		if err != nil {
			b.Fatal(err)
		}
		reportCell(b, tb, 1, 2, "tpcd1pct-on")
		reportCell(b, tb, 1, 3, "tpcd1pct-off")
	}
}

// BenchmarkAblationStrictTiers contrasts the default profit-only LNC
// ordering with the literal Figure-1 tier loop (A6; see DESIGN.md).
func BenchmarkAblationStrictTiers(b *testing.B) {
	tr := benchTrace(b, "tpcd")
	capacity := sim.CacheBytesForFraction(tr, 1)
	for i := 0; i < b.N; i++ {
		relaxed, err := sim.ReplaySetup(tr, sim.Setup{Policy: core.LNCRA, K: 4}, capacity)
		if err != nil {
			b.Fatal(err)
		}
		strict, err := sim.ReplaySetup(tr, sim.Setup{Policy: core.LNCRA, K: 4, StrictTiers: true}, capacity)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(relaxed.CSR(), "CSR-default")
		b.ReportMetric(strict.CSR(), "CSR-strict")
	}
}

// BenchmarkExtensionMulticlass runs the §6 multiclass extension (A4).
func BenchmarkExtensionMulticlass(b *testing.B) {
	tr := benchTrace(b, "multiclass")
	capacity := sim.CacheBytesForFraction(tr, 1)
	for i := 0; i < b.N; i++ {
		k1, err := sim.ReplaySetup(tr, sim.Setup{Policy: core.LRUK, K: 1}, capacity)
		if err != nil {
			b.Fatal(err)
		}
		k4, err := sim.ReplaySetup(tr, sim.Setup{Policy: core.LRUK, K: 4}, capacity)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(k1.CSR(), "LRUK-K1")
		b.ReportMetric(k4.CSR(), "LRUK-K4")
	}
}

// BenchmarkBaselinesLFULCS compares the related-work baselines (A5).
func BenchmarkBaselinesLFULCS(b *testing.B) {
	tr := benchTrace(b, "tpcd")
	capacity := sim.CacheBytesForFraction(tr, 1)
	for i := 0; i < b.N; i++ {
		for _, p := range []core.PolicyKind{core.LFU, core.LCS, core.LNCRA} {
			res, err := sim.ReplaySetup(tr, sim.Setup{Policy: p, K: 4}, capacity)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.CSR(), p.String())
		}
	}
}

// hotStream is the input of the hit-path microbenchmarks, built once and
// outside every timer: the shape of the end-to-end bench's hot_inproc
// workload (bench/stream.go) — 2^16 SQL-shaped query strings of ~140 bytes
// that need compressing, log-normal sizes and costs, and 2^20 Zipf(1.01)
// draws through a permutation so rank and shard are unrelated. capacity
// holds every set twice over: after warm, every reference hits.
type hotStream struct {
	reqs     []watchman.Request
	keys     []uint32
	capacity int64
}

var hotStreamOnce = sync.OnceValue(func() *hotStream {
	const pop, draws = 1 << 16, 1 << 20
	rng := rand.New(rand.NewSource(benchSeed))
	h := &hotStream{reqs: make([]watchman.Request, pop), keys: make([]uint32, draws)}
	for k := range h.reqs {
		h.reqs[k] = watchman.Request{
			QueryID: fmt.Sprintf("SELECT d.name, SUM(f.amount) FROM fact f JOIN dim%02d d ON f.k%02d = d.key WHERE f.bucket = %07d GROUP BY d.name",
				k%64, k%64, k),
			Size: int64(2048*math.Exp(rng.NormFloat64())) + 1,
			Cost: math.Round(200*math.Exp(1.5*rng.NormFloat64())) + 1,
		}
		h.capacity += 2 * h.reqs[k].Size
	}
	perm := rng.Perm(pop)
	zipf := rand.NewZipf(rng, 1.01, 1, pop-1)
	for i := range h.keys {
		h.keys[i] = uint32(perm[zipf.Uint64()])
	}
	return h
})

// at returns reference i of the stream, stamped with logical time i+1 ms.
func (h *hotStream) at(i int) watchman.Request {
	r := h.reqs[h.keys[i%len(h.keys)]]
	r.Time = float64(i+1) / 1000
	return r
}

// warm admits every set through reference, the cache's Reference method.
func (h *hotStream) warm(b *testing.B, reference func(watchman.Request) (bool, any)) {
	for k := range h.reqs {
		reference(h.reqs[k])
	}
	for k := range h.reqs {
		if hit, _ := reference(h.reqs[k]); !hit {
			b.Fatalf("set %d not resident after warm-up", k)
		}
	}
}

// BenchmarkCacheReferenceHit measures the serial core's hot path on the hot
// stream: canonicalize and hash the raw query string, probe the signature
// index, charge the hit.
func BenchmarkCacheReferenceHit(b *testing.B) {
	h := hotStreamOnce()
	c, err := watchman.New(watchman.Config{Capacity: h.capacity, K: 4, Policy: watchman.LNCRA})
	if err != nil {
		b.Fatal(err)
	}
	h.warm(b, c.Reference)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hit, _ := c.Reference(h.at(i)); !hit {
			b.Fatal("hot stream missed")
		}
	}
}

// BenchmarkCacheReferenceMiss measures the miss path — admission test,
// victim search, eviction — at two resident populations: about 1 300
// sets, one shard of the bench's zipf_evict_http daemon, and about
// 20 000, an unsharded shadow (admission-tuner arm, what-if ghost). Keys
// are Zipf(1.01) over 16× the resident population, so the stream also
// hits; a hit costs ~100 ns against 5 µs and up for a miss, and ns/miss
// divides the elapsed time by the misses alone.
func BenchmarkCacheReferenceMiss(b *testing.B) {
	for _, n := range []int{1300, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchReferenceMiss(b, n)
		})
	}
}

func benchReferenceMiss(b *testing.B, n int) {
	const meanSize = 2048
	rng := rand.New(rand.NewSource(benchSeed))
	pop := make([]watchman.Request, 16*n)
	for k := range pop {
		pop[k] = watchman.Request{
			QueryID: fmt.Sprintf("SELECT SUM(amount) FROM fact WHERE bucket = %07d", k),
			Size:    meanSize/2 + rng.Int63n(meanSize),
			Cost:    math.Round(200*math.Exp(1.5*rng.NormFloat64())) + 1,
		}
	}
	zipf := rand.NewZipf(rng, 1.01, 1, uint64(len(pop)-1))
	keys := make([]uint32, 1<<21)
	for i := range keys {
		keys[i] = uint32(zipf.Uint64())
	}
	c, err := watchman.New(watchman.Config{
		Capacity: int64(n) * meanSize, K: 4, Policy: watchman.LNCRA,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Fill the free space first (no victim search yet), so every timed
	// miss needs one.
	t := 0
	for ; c.FreeBytes() >= 2*meanSize; t++ {
		req := pop[keys[t%len(keys)]]
		req.Time = float64(t) / 1000
		c.Reference(req)
	}
	misses := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := pop[keys[(t+i)%len(keys)]]
		req.Time = float64(t+i) / 1000
		if hit, _ := c.Reference(req); !hit {
			misses++
		}
	}
	b.StopTimer()
	if misses > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(misses), "ns/miss")
	}
	b.ReportMetric(float64(misses)/float64(b.N), "miss-ratio")
	b.ReportMetric(float64(c.Resident()), "residents")
}

// BenchmarkShardedReference measures the concurrent layer's hit path under
// parallel load: every GOMAXPROCS worker drives its own offset of the hot
// stream through the sharded LNC-RA cache. Nothing in the timed loop
// belongs to the benchmark — the IDs are generated beforehand — so
// allocs/op is the front's own and CI gates it at 0. Compare with
// BenchmarkCacheReferenceHit for the single-threaded floor.
func BenchmarkShardedReference(b *testing.B) {
	benchShardedHit(b, false)
}

// benchShardedHit runs the hot stream through Sharded.Reference at 1, 4 and
// 16 shards, with or without the telemetry registry attached.
func benchShardedHit(b *testing.B, withRegistry bool) {
	h := hotStreamOnce()
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := watchman.ShardedConfig{
				Shards: shards,
				Cache:  watchman.Config{Capacity: h.capacity, K: 4, Policy: watchman.LNCRA},
			}
			if withRegistry {
				cfg.Registry = watchman.NewTelemetryRegistry()
			}
			sc, err := watchman.NewSharded(cfg)
			if err != nil {
				b.Fatal(err)
			}
			h.warm(b, sc.Reference)
			warm := sc.Stats()
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 1_000_003
				for pb.Next() {
					i++
					sc.Reference(h.at(i))
				}
			})
			st := sc.Stats()
			b.ReportMetric(float64(st.Hits-warm.Hits)/float64(st.References-warm.References), "hit-ratio")
			b.ReportMetric(float64(st.References-warm.References)/b.Elapsed().Seconds(), "refs/s")
			if withRegistry {
				if snap := cfg.Registry.Snapshot(); snap.References() != st.References {
					b.Fatalf("registry references %d, stats %d", snap.References(), st.References)
				}
			}
		})
	}
}

// BenchmarkShardedReferenceSnapshots measures the hit path with and
// without a concurrent snapshot writer: a 64-query hot set admitted up
// front, then referenced from every goroutine with precompressed IDs, so
// the measured work is purely the per-hit path.
//
//   - load=pure: nothing but hits.
//   - load=snapshots: the same hit storm racing a continuous snapshot
//     writer over a ~100 MB resident population (the production
//     -snapshot-interval pressure case). The writer runs the streaming
//     path (Snapshot → StreamSnapshot): each shard leaves in bounded
//     chunks with the shard lock released between them and every byte
//     encoded outside all locks, so a foreground hit stalls for at most
//     one chunk copy instead of a full-shard export. The writer's own
//     allocations are attributed to the measured loop, so B/op and
//     allocs/op in this shape describe the writer, not the hit path
//     (whose zero allocs TestFrontAllocations asserts and load=pure
//     shows).
func BenchmarkShardedReferenceSnapshots(b *testing.B) {
	hot := make([]string, 64)
	for i := range hot {
		hot[i] = watchman.CompressID(fmt.Sprintf("hot query %d", i))
	}
	filler := make([]string, 50_000)
	for i := range filler {
		filler[i] = watchman.CompressID(fmt.Sprintf("filler %d", i))
	}
	for _, load := range []struct {
		name      string
		snapshots bool
	}{{"load=pure", false}, {"load=snapshots", true}} {
		b.Run(load.name, func(b *testing.B) {
			capacity := int64(8 << 20)
			if load.snapshots {
				capacity = 256 << 20 // hold the filler population: long export copies
			}
			sc, err := watchman.NewSharded(watchman.ShardedConfig{
				Shards: 16,
				Cache:  watchman.Config{Capacity: capacity, K: 4, Policy: watchman.LNCRA},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i, id := range hot {
				sc.Reference(watchman.Request{QueryID: id, Time: float64(i + 1), Size: 256, Cost: 100})
			}
			var stopExport atomic.Bool
			exportDone := make(chan struct{})
			if load.snapshots {
				for i, id := range filler {
					sc.Reference(watchman.Request{QueryID: id, Time: float64(i + 64), Size: 2048, Cost: 50})
				}
				go func() {
					defer close(exportDone)
					for !stopExport.Load() {
						_ = sc.Snapshot(io.Discard)
					}
				}()
			} else {
				close(exportDone)
			}
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 1_000_003
				for pb.Next() {
					i++
					sc.Reference(watchman.Request{QueryID: hot[i&63], Size: 256, Cost: 100})
				}
			})
			b.StopTimer()
			stopExport.Store(true)
			<-exportDone
			st := sc.Stats()
			b.ReportMetric(float64(st.Hits)/float64(st.References), "hit-ratio")
			b.ReportMetric(float64(st.References)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkReferenceWithRegistry is BenchmarkShardedReference with the
// telemetry registry attached: same stream, same shard counts. The delta
// between the two is the full cost of the telemetry spine on a hit — a
// handful of atomic adds and two sync.Map loads, no allocation.
func BenchmarkReferenceWithRegistry(b *testing.B) {
	benchShardedHit(b, true)
}

// BenchmarkShardedReferenceFlight measures the flight recorder's cost on
// the same contended hot/cold mix at 16 shards: recorder absent (the nil
// check only), sampling 1 in 64 (the serve -debug default), and capturing
// every span. The mix keeps its misses (the decision ring records
// admissions and evictions) and builds its IDs inside the timed loop, so
// read the cases against recorder=off, not against
// BenchmarkShardedReference — attaching no recorder costs one nil check
// per reference.
func BenchmarkShardedReferenceFlight(b *testing.B) {
	cases := []struct {
		name string
		rec  *watchman.FlightRecorder
	}{
		{"recorder=off", nil},
		{"recorder=sampled", watchman.NewFlightRecorder(watchman.FlightConfig{SampleEvery: 64})},
		{"recorder=always", watchman.NewFlightRecorder(watchman.FlightConfig{SampleEvery: 1})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sc, err := watchman.NewSharded(watchman.ShardedConfig{
				Shards:   16,
				Cache:    watchman.Config{Capacity: 8 << 20, K: 4, Policy: watchman.LNCRA},
				Recorder: tc.rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 1_000_003
				for pb.Next() {
					i++
					var id string
					if i%8 == 0 {
						id = fmt.Sprintf("cold query %d", i%65536)
					} else {
						id = fmt.Sprintf("hot query %d", i%64)
					}
					sc.Reference(watchman.Request{QueryID: id, Size: 256, Cost: 100})
				}
			})
			st := sc.Stats()
			b.ReportMetric(float64(st.Hits)/float64(st.References), "hit-ratio")
			b.ReportMetric(float64(st.References)/b.Elapsed().Seconds(), "refs/s")
			if tc.rec != nil && len(tc.rec.Decisions(1)) == 0 {
				b.Fatal("recorder attached but captured no decisions")
			}
		})
	}
}

// BenchmarkShardedReferenceWhatIf measures the ghost matrix's cost on
// the contended hot/cold mix at 16 shards, in three configurations:
//
//   - whatif=off: no matrix — the nil-check baseline.
//   - whatif=hotpath: matrix attached with a sampling rate so high the
//     hash filter rejects essentially every reference. This isolates the
//     per-reference hot-path tax every live reference pays — one striped
//     counter add plus one hash multiply under the shard lock — and is
//     the case the acceptance bar applies to: 0 extra allocs/op and ≤5%
//     refs/s regression vs whatif=off.
//   - whatif=on: the production default (R=8, 20 ghost cells). Sampled
//     references additionally pay a value-struct channel send (no
//     allocation — relations, the only pointer payload, are absent
//     here), and the background worker replays them into the ghosts.
//     The worker's simulation CPU is real and shows up in refs/s in
//     proportion to 1/GOMAXPROCS: on a many-core host it runs on a
//     spare core and the foreground loss stays small; on a 1-CPU host
//     it timeshares with the serving path. A full FIFO sheds instead of
//     blocking, so the foreground never waits on the ghosts either way.
func BenchmarkShardedReferenceWhatIf(b *testing.B) {
	for _, tc := range []struct {
		name string
		rate int
	}{
		{"whatif=off", 0},
		{"whatif=hotpath", 1 << 20},
		{"whatif=on", 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			base := watchman.Config{Capacity: 8 << 20, K: 4, Policy: watchman.LNCRA}
			var ghosts *watchman.WhatIfMatrix
			if tc.rate > 0 {
				var err error
				ghosts, err = watchman.NewWhatIfMatrix(watchman.WhatIfConfig{Base: base, SampleRate: tc.rate})
				if err != nil {
					b.Fatal(err)
				}
			}
			sc, err := watchman.NewSharded(watchman.ShardedConfig{
				Shards: 16,
				Cache:  base,
				WhatIf: ghosts,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sc.Close()
			var seq atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 1_000_003
				for pb.Next() {
					i++
					var id string
					if i%8 == 0 {
						id = fmt.Sprintf("cold query %d", i%65536)
					} else {
						id = fmt.Sprintf("hot query %d", i%64)
					}
					sc.Reference(watchman.Request{QueryID: id, Size: 256, Cost: 100})
				}
			})
			st := sc.Stats()
			b.ReportMetric(float64(st.Hits)/float64(st.References), "hit-ratio")
			b.ReportMetric(float64(st.References)/b.Elapsed().Seconds(), "refs/s")
			if ghosts != nil {
				rep := ghosts.Report(0)
				if rep.RefsSeen != st.References {
					b.Fatalf("matrix saw %d refs, cache served %d", rep.RefsSeen, st.References)
				}
			}
		})
	}
}

// benchQuery is a TPC-D Q1-shaped query string, the input of the two
// canonicalization benchmarks.
const benchQuery = "select l_returnflag, l_linestatus, sum(l_quantity), avg(l_extendedprice) from lineitem where l_shipdate <= 2520 group by l_returnflag, l_linestatus"

// BenchmarkCompressID measures query-ID canonicalization into a string:
// the front's loop plus the copy to the heap, minus the signature fold
// (the compiler drops it from the inlined loop, its result being unused
// here — which is why this can read faster than BenchmarkCanonical).
func BenchmarkCompressID(b *testing.B) {
	b.SetBytes(int64(len(benchQuery)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchID = watchman.CompressID(benchQuery)
	}
}

// BenchmarkCanonical measures what a reference pays before it takes a
// shard lock: canonicalize into a stack buffer and fold the signature, in
// one pass and without the heap.
func BenchmarkCanonical(b *testing.B) {
	b.SetBytes(int64(len(benchQuery)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf [256]byte
		id, sig := core.Canonical(buf[:0], benchQuery)
		benchSig += sig + uint64(len(id))
	}
}

// Results the benchmarks above must not let the compiler discard.
var (
	benchID  string
	benchSig uint64
)

// BenchmarkTraceGeneration measures workload generation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := watchman.TPCDTrace(0.005, watchman.WorkloadConfig{Queries: 2000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayThroughput measures end-to-end replay speed (references
// per second through the full LNC-RA stack).
func BenchmarkReplayThroughput(b *testing.B) {
	tr := benchTrace(b, "tpcd")
	capacity := sim.CacheBytesForFraction(tr, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplaySetup(tr, sim.Setup{Policy: core.LNCRA, K: 4}, capacity); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "refs/s")
}
