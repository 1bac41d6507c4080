package persist

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
)

// benchState builds one well-populated cache state for the codec
// benchmarks: ~2k resident sets with byte payloads plus retained records.
func benchState(b testing.TB) *core.CacheState {
	b.Helper()
	c, err := core.New(core.Config{Capacity: 4 << 20, K: 4, Policy: core.LNCRA, MetadataOverhead: 64})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 512)
	rng.Read(payload)
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += rng.Float64()
		c.Reference(core.Request{
			QueryID:   fmt.Sprintf("select * from t where k = %d", rng.Intn(4000)),
			Time:      now,
			Size:      rng.Int63n(2048) + 1,
			Cost:      float64(rng.Intn(5000)) + 1,
			Relations: []string{fmt.Sprintf("rel%d", rng.Intn(8))},
			Payload:   payload,
		})
	}
	return c.ExportState()
}

// BenchmarkSnapshotWrite measures encode throughput of a populated
// snapshot (reported via bytes/op of the encoded size in the log).
func BenchmarkSnapshotWrite(b *testing.B) {
	snap := &Snapshot{Shards: []*core.CacheState{benchState(b)}}
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := &countingWriter{}
		if err := Write(cw, snap); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.SetBytes(size)
}

// BenchmarkSnapshotStreamWrite measures the streaming writer the way the
// sharded cache drives it — entries arriving in bounded chunks — so the
// artifact tracks the throughput of the low-pause snapshot path itself.
func BenchmarkSnapshotStreamWrite(b *testing.B) {
	st := benchState(b)
	const chunk = 512
	var size int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := &countingWriter{}
		sw, err := NewStreamWriter(cw, 1, st.Clock)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.BeginShard(st); err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(st.Entries); off += chunk {
			end := min(off+chunk, len(st.Entries))
			if err := sw.WriteEntries(st.Entries[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.EndShard(); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.SetBytes(size)
}

// TestWriteSteadyStateAllocs pins the encoder pooling: once the pool is
// warm, Write must reuse its section buffers, interning dictionary and
// payload scratch rather than allocating per entry. The bound is far
// under one alloc per entry (the state carries thousands), with slack
// for cold-start pool misses when a GC empties the pool mid-run.
func TestWriteSteadyStateAllocs(t *testing.T) {
	snap := &Snapshot{Shards: []*core.CacheState{benchState(t)}}
	Write(io.Discard, snap) // warm the encoder pool
	allocs := testing.AllocsPerRun(50, func() {
		if err := Write(io.Discard, snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 && !raceflag.Enabled {
		t.Errorf("Write allocates %.1f objects/op steady-state over %d entries; pooling should make this O(1)",
			allocs, len(snap.Shards[0].Entries))
	}
}

// BenchmarkSnapshotRead measures decode throughput.
func BenchmarkSnapshotRead(b *testing.B) {
	snap := &Snapshot{Shards: []*core.CacheState{benchState(b)}}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures the full restore path: decode plus
// pouring the state into a fresh cache.
func BenchmarkSnapshotRestore(b *testing.B) {
	snap := &Snapshot{Shards: []*core.CacheState{benchState(b)}}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		c, err := core.New(core.Config{Capacity: 4 << 20, K: 4, Policy: core.LNCRA, MetadataOverhead: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RestoreState(dec.Shards[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter discards while counting, so encode benchmarks do not
// measure buffer growth.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

var _ io.Writer = (*countingWriter)(nil)
