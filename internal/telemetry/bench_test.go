package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// BenchmarkShardSinkEmit charges hit events into 16 shard sinks, each
// behind its own mutex as the shard layer holds them, from every
// parallel worker: the registry's share of a concurrent hit. Each event
// reads one of 64 relations plus a common fact table.
func BenchmarkShardSinkEmit(b *testing.B) {
	const shards, relations = 16, 64
	r := NewRegistry()
	type lockedSink struct {
		mu   sync.Mutex
		sink core.EventSink
		_    [40]byte // keep neighbouring shard mutexes off one cache line
	}
	sinks := make([]lockedSink, shards)
	for i := range sinks {
		sinks[i].sink = r.ShardSink(i)
	}
	events := make([]core.Event, relations)
	for i := range events {
		events[i] = hitEvent(0, 10, []string{"fact", "dim" + strconv.Itoa(i)})
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 7919
		for pb.Next() {
			i++
			s := &sinks[i%shards]
			s.mu.Lock()
			s.sink.Emit(events[i%relations])
			s.mu.Unlock()
		}
	})
}
