package persist

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
)

// populatedState builds a CacheState by replaying random traffic through
// a real cache, so the exported shape is always one the cache can
// produce.
func populatedState(t *testing.T, seed int64, n int) *core.CacheState {
	t.Helper()
	c, err := core.New(core.Config{Capacity: 32 << 10, K: 3, Policy: core.LNCRA, MetadataOverhead: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.Float64()
		c.Reference(core.Request{
			QueryID:   fmt.Sprintf("select * from t%d", rng.Intn(n/4+1)),
			Time:      now,
			Class:     rng.Intn(3),
			Size:      rng.Int63n(500) + 1,
			Cost:      float64(rng.Intn(2000)) + 1,
			Relations: []string{fmt.Sprintf("rel%d", rng.Intn(5))},
		})
	}
	return c.ExportState()
}

// snapshotsEqual compares decoded snapshots structurally.
func snapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Clock != got.Clock {
		t.Fatalf("clock %g != %g", got.Clock, want.Clock)
	}
	if len(want.Shards) != len(got.Shards) {
		t.Fatalf("shard count %d != %d", len(got.Shards), len(want.Shards))
	}
	for i := range want.Shards {
		if !reflect.DeepEqual(want.Shards[i], got.Shards[i]) {
			t.Fatalf("shard %d state differs:\n  want %+v\n  got  %+v", i, want.Shards[i], got.Shards[i])
		}
	}
	if !reflect.DeepEqual(want.Admission, got.Admission) {
		t.Fatalf("admission state differs:\n  want %+v\n  got  %+v", want.Admission, got.Admission)
	}
}

func TestRoundTripPopulated(t *testing.T) {
	snap := &Snapshot{
		Clock:  123.5,
		Shards: []*core.CacheState{populatedState(t, 1, 2000), populatedState(t, 2, 1500)},
		Admission: &admission.TunerState{
			Theta: 0.25,
			Arms: []admission.ArmState{
				{Theta: 0.25, Score: 0.41, Seeded: true},
				{Theta: 1, Score: 0.38, Seeded: true},
				{Theta: 4, Seeded: false},
			},
			Samples: []admission.Sample{
				{ID: "q1", Sig: core.Signature("q1"), Size: 10, Cost: 5, Time: 100, Relations: []string{"r"}},
				{ID: "q2", Sig: core.Signature("q2"), Size: 20, Cost: 9, Time: 101},
			},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, snap, got)
}

func TestRoundTripEmpty(t *testing.T) {
	snap := &Snapshot{Shards: []*core.CacheState{}}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 0 || got.Admission != nil {
		t.Fatalf("empty snapshot decoded as %+v", got)
	}
}

// TestRoundTripDeterministic: same state in, same bytes out — the
// property that makes snapshot diffs and the bit-identical acceptance
// check meaningful.
func TestRoundTripDeterministic(t *testing.T) {
	st := populatedState(t, 5, 1000)
	var a, b bytes.Buffer
	if err := Write(&a, &Snapshot{Shards: []*core.CacheState{st}}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, &Snapshot{Shards: []*core.CacheState{st}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same state differ")
	}
}

// TestPayloadKinds pins every payload encoding the codec supports, and
// the loud failure for unserializable ones.
func TestPayloadKinds(t *testing.T) {
	res := &engine.Result{
		Schema: engine.Schema{{Name: "a", Width: 4}},
		Rows:   [][]int64{{1}, {2}},
	}
	entries := []core.EntryState{
		{ID: "bytes", Size: 4, Resident: true, RefTimes: []float64{1}, TotalRefs: 1, Payload: []byte{1, 2, 3}},
		{ID: "json", Size: 4, Resident: true, RefTimes: []float64{2}, TotalRefs: 1,
			Payload: map[string]any{"rows": []any{float64(1), "x"}}},
		{ID: "none", Size: 4, Resident: true, RefTimes: []float64{4}, TotalRefs: 1},
		{ID: "result", Size: 4, Resident: true, RefTimes: []float64{5}, TotalRefs: 1, Payload: res,
			Plan: &engine.Descriptor{Rel: "t", Cols: []string{"a"}}},
		{ID: "str", Size: 4, Resident: true, RefTimes: []float64{3}, TotalRefs: 1, Payload: "hello"},
	}
	snap := &Snapshot{Shards: []*core.CacheState{{Clock: 9, Entries: entries}}}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec := got.Shards[0].Entries
	if !bytes.Equal(dec[0].Payload.([]byte), []byte{1, 2, 3}) {
		t.Fatalf("bytes payload = %v", dec[0].Payload)
	}
	if !reflect.DeepEqual(dec[1].Payload, entries[1].Payload) {
		t.Fatalf("json payload = %#v", dec[1].Payload)
	}
	if dec[2].Payload != nil {
		t.Fatalf("nil payload = %#v", dec[2].Payload)
	}
	if !reflect.DeepEqual(dec[3].Payload, res) {
		t.Fatalf("result payload = %#v", dec[3].Payload)
	}
	if !reflect.DeepEqual(dec[3].Plan, entries[3].Plan) {
		t.Fatalf("plan = %#v", dec[3].Plan)
	}
	if dec[4].Payload != "hello" {
		t.Fatalf("string payload = %#v", dec[4].Payload)
	}

	// Unserializable payloads and plans fail loudly at write time.
	bad := &Snapshot{Shards: []*core.CacheState{{Entries: []core.EntryState{
		{ID: "chan", Size: 1, Resident: true, Payload: make(chan int)},
	}}}}
	if err := Write(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("unserializable payload must fail the write")
	}
	badPlan := &Snapshot{Shards: []*core.CacheState{{Entries: []core.EntryState{
		{ID: "p", Size: 1, Resident: true, Plan: 42},
	}}}}
	if err := Write(&bytes.Buffer{}, badPlan); err == nil {
		t.Fatal("unknown plan type must fail the write")
	}
}

// TestSingleCacheRoundTrip covers the one-shard image of a serial cache:
// its exported state and a tuner's survive Write → Read, and restore into
// a fresh cache and tuner through RestoreState on Shards[0].
func TestSingleCacheRoundTrip(t *testing.T) {
	cfg := core.Config{Capacity: 16 << 10, K: 2, Policy: core.LNCRA}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		c.Reference(core.Request{QueryID: fmt.Sprintf("q%d", i%40), Time: float64(i), Size: 100, Cost: 10})
	}
	tuner, err := admission.New(admission.Config{Capacity: 16 << 10, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Clock: c.Clock(), Shards: []*core.CacheState{c.ExportState()}, Admission: tuner.ExportState()}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	dec, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Shards) != 1 || dec.Admission == nil {
		t.Fatalf("decoded shape: %d shards, admission %v", len(dec.Shards), dec.Admission)
	}
	fresh, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshTuner, err := admission.New(admission.Config{Capacity: 16 << 10, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.RestoreState(dec.Shards[0]); err != nil {
		t.Fatal(err)
	}
	if err := freshTuner.RestoreState(dec.Admission); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats() != c.Stats() || fresh.Resident() != c.Resident() {
		t.Fatal("restored cache differs")
	}
	if freshTuner.Threshold() != tuner.Threshold() {
		t.Fatalf("restored θ %g, want %g", freshTuner.Threshold(), tuner.Threshold())
	}
}

// Write encodes a materialized snapshot to w in the WMSNAP format through
// StreamWriter, one whole shard at a time.
func Write(w io.Writer, snap *Snapshot) error {
	sw, err := NewStreamWriter(w, len(snap.Shards), snap.Clock)
	if err != nil {
		return err
	}
	defer sw.Close() // releases the pooled encoder on error paths
	for _, sh := range snap.Shards {
		if err := sw.BeginShard(sh); err != nil {
			return err
		}
		if err := sw.WriteEntries(sh.Entries); err != nil {
			return err
		}
		if err := sw.EndShard(); err != nil {
			return err
		}
	}
	if snap.Admission != nil {
		if err := sw.WriteAdmission(snap.Admission); err != nil {
			return err
		}
	}
	return sw.Close()
}
