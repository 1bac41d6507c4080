package core

// Microbenchmarks for the two core costs the end-to-end ladder (go run
// ./bench) has no row for: one miss at a chosen resident population, and
// the reference front on its own. Everything else the ladder measures
// directly; see bench/README.md.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

const benchSeed = 42

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
	pop := make([]Request, 16*n)
	for k := range pop {
		pop[k] = Request{
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
	c, err := New(Config{
		Capacity: int64(n) * meanSize, K: 4, Policy: LNCRA,
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

// benchQuery is a TPC-D Q1-shaped query string, the input of
// BenchmarkCanonical.
const benchQuery = "select l_returnflag, l_linestatus, sum(l_quantity), avg(l_extendedprice) from lineitem where l_shipdate <= 2520 group by l_returnflag, l_linestatus"

// BenchmarkCanonical measures what a reference pays before it takes a
// shard lock: canonicalize into a stack buffer and fold the signature, in
// one pass and without the heap.
func BenchmarkCanonical(b *testing.B) {
	b.SetBytes(int64(len(benchQuery)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf [256]byte
		id, sig := Canonical(buf[:0], benchQuery)
		benchSig += sig + uint64(len(id))
	}
}

// benchSig keeps BenchmarkCanonical's result from being discarded by the
// compiler.
var benchSig uint64
