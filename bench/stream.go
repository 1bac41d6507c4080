package main

// Seeded request streams and their pre-encoded HTTP form. Everything a
// workload sends is produced here from the seed, before any timer starts:
// the server sees only the generated requests.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// dims is the number of dimension relations the synthetic streams join
// against; invalidating one of them drops about 1/dims of the resident sets.
const dims = 64

// spec fixes one workload: which stream it draws, how the cache is sized
// against it and how many references each phase replays. The counts are
// identical on every commit; scaled shrinks them for the smoke test.
type spec struct {
	name string
	why  string
	// tpcd selects the paper's TPC-D trace; otherwise the stream is Zipf
	// over pop signatures with log-normal sizes and costs.
	tpcd bool
	pop  int
	// cacheFrac sizes the cache: a fraction of the database (tpcd) or of
	// the population's total bytes (Zipf).
	cacheFrac float64
	// warm references fill the cache before the timers start; measured is
	// the most references a timed run can consume; traced is how many
	// measured references the traced ladder replays.
	warm, measured, traced int
	// inproc calls shard.Sharded in-process instead of the daemon, and
	// cycles the warm-up block as the measured stream (the block is the
	// working set, so every measured reference hits).
	inproc bool
	// churn interleaves POST /v1/invalidate and POST /v1/snapshot with the
	// measured references and starts the daemon with -snapshot-path.
	churn bool
	// taxed runs the observer-tax matrix on this stream in the traced run.
	taxed bool
}

// specs lists the workloads in the order they run. Names are cited by
// later issues and must not change.
var specs = []spec{
	{name: "tpcd_http", tpcd: true, cacheFrac: 0.01, warm: 30_000, measured: 300_000, traced: 50_000, taxed: true,
		why: "paper's TPC-D drill-down trace at 1% cache over HTTP: cheap misses, so server JSON + HTTP transport dominate and core is small; its csr is the paper's number"},
	{name: "zipf_evict_http", pop: 1 << 18, cacheFrac: 0.05, warm: 60_000, measured: 200_000, traced: 60_000,
		why: "Zipf(1.01) over 2^18 signatures at 5% cache over HTTP: ~30% of references miss into ~20k resident sets, so core admission + victim search is the largest in-process cost; an evictor change shows here"},
	{name: "hot_inproc", pop: 1 << 16, cacheFrac: 2, warm: 1 << 20, measured: 0, traced: 1 << 17, inproc: true, taxed: true,
		why: "all-hit Zipf stream called in-process through shard.Sharded: only shard locking, core hit bookkeeping and telemetry run, HTTP/JSON work is zero"},
	{name: "hot_churn_http", pop: 1 << 16, cacheFrac: 2, warm: 50_000, measured: 300_000, traced: 60_000, churn: true,
		why: "the hot stream over HTTP with invalidations every 5000 and snapshots every 20000 references: write/background work beside reads"},
}

// Churn cadence of the hot_churn_http workload, in measured references.
const (
	invalidateEvery = 5_000
	snapshotEvery   = 20_000
)

// scaled returns the spec with its counts and population multiplied by f
// (the smoke test runs every workload at 1/100).
func (sp spec) scaled(f float64) spec {
	mul := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*f), 64)
	}
	sp.pop, sp.warm, sp.measured, sp.traced = mul(sp.pop), mul(sp.warm), mul(sp.measured), mul(sp.traced)
	return sp
}

// stream is one generated workload input: the requests in send order, the
// cache size that goes with them and, for HTTP workloads, every request
// pre-encoded as HTTP/1.1 bytes in one arena.
type stream struct {
	spec spec
	// reqs holds the warm-up references followed by the measured ones.
	reqs []shard.Request
	// capacity is the cache size in bytes (-cache-bytes).
	capacity int64
	// arena holds the encoded requests back to back; request i occupies
	// arena[off[i]:off[i+1]] and its JSON body starts at body[i].
	arena []byte
	off   []uint32
	body  []uint32
	// hash is the SHA-256 of the request fields, printed with the results
	// so a number is never read without the stream it was measured on.
	hash string
	// genMS and encodeMS time the two set-up stages.
	genMS, encodeMS float64
}

// generate builds the workload's stream from the seed.
func generate(sp spec, seed int64) (*stream, error) {
	t0 := now()
	s := &stream{spec: sp}
	var err error
	if sp.tpcd {
		err = s.genTPCD(seed)
	} else {
		s.genZipf(seed)
	}
	if err != nil {
		return nil, err
	}
	s.hash = s.digest()
	s.genMS = ms(since(t0))
	if !sp.inproc {
		t1 := now()
		if err := s.encode(); err != nil {
			return nil, err
		}
		s.encodeMS = ms(since(t1))
	}
	return s, nil
}

// genTPCD draws the paper's TPC-D trace. Record times are offset by one
// second so that none is zero (a zero time means "now" to the server).
func (s *stream) genTPCD(seed int64) error {
	n := s.spec.warm + s.spec.measured
	_, tr, err := workload.StandardTPCD(0, workload.Config{Queries: n, Seed: seed})
	if err != nil {
		return err
	}
	s.capacity = sim.CacheBytesForFraction(tr, s.spec.cacheFrac*100)
	s.reqs = make([]shard.Request, n)
	for i := range tr.Records {
		r := &tr.Records[i]
		s.reqs[i] = shard.Request{QueryID: r.QueryID, Time: r.Time + 1, Class: r.Class,
			Size: r.Size, Cost: r.Cost, Relations: r.Relations}
		if r.Plan != nil {
			s.reqs[i].Plan = r.Plan
		}
	}
	return nil
}

// catalogueSeed fixes the synthetic warehouse — which signatures exist,
// their sizes, costs and popularity ranks — the way the TPC-D database is
// fixed: the run's seed draws the query stream, not the data. CSR weighs
// heavy-tailed costs by heavy-tailed popularity, so a reseeded catalogue
// would move it by several percent between seeds and hide a policy change.
const catalogueSeed = 1996

// genZipf draws a Zipf(1.01) stream over the spec's population. Each
// signature has a log-normal size (median 2 KiB, σ 1.0) and cost (median
// 200 blocks, σ 1.5), reads "fact" and one of the dimNN relations, and is
// reached through a permutation so rank and shard are unrelated.
// Reference i carries logical time (i+1) ms.
func (s *stream) genZipf(seed int64) {
	sp := s.spec
	rng := rand.New(rand.NewSource(catalogueSeed))
	rels := make([][]string, dims)
	for d := range rels {
		rels[d] = []string{"fact", fmt.Sprintf("dim%02d", d)}
	}
	type sig struct {
		id   string
		size int64
		cost float64
	}
	sigs := make([]sig, sp.pop)
	var total int64
	for k := range sigs {
		sigs[k] = sig{
			id: fmt.Sprintf("SELECT d.name, SUM(f.amount) FROM fact f JOIN dim%02d d ON f.k%02d = d.key WHERE f.bucket = %07d GROUP BY d.name",
				k%dims, k%dims, k),
			size: int64(2048*math.Exp(rng.NormFloat64())) + 1,
			cost: math.Round(200*math.Exp(1.5*rng.NormFloat64())) + 1,
		}
		total += sigs[k].size
	}
	s.capacity = int64(float64(total) * sp.cacheFrac)
	perm := rng.Perm(sp.pop)
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.01, 1, uint64(sp.pop-1))
	n := sp.warm + sp.measured
	if sp.inproc {
		n = sp.warm // the measured references cycle the warm-up block
	}
	s.reqs = make([]shard.Request, n)
	for i := range s.reqs {
		k := perm[zipf.Uint64()]
		s.reqs[i] = shard.Request{QueryID: sigs[k].id, Time: float64(i+1) / 1000,
			Size: sigs[k].size, Cost: sigs[k].cost, Relations: rels[k%dims]}
	}
}

// at returns the request at global index i (warm-up first). An in-process
// stream cycles its block, restamping the time from the index.
func (s *stream) at(i int) shard.Request {
	if !s.spec.inproc {
		return s.reqs[i]
	}
	r := s.reqs[i%len(s.reqs)]
	r.Time = float64(i+1) / 1000
	return r
}

// digest hashes every request's fields in send order.
func (s *stream) digest() string {
	h := sha256.New()
	var num [24]byte
	for i := range s.reqs {
		r := &s.reqs[i]
		h.Write([]byte(r.QueryID))
		binary.LittleEndian.PutUint64(num[0:], math.Float64bits(r.Time))
		binary.LittleEndian.PutUint64(num[8:], uint64(r.Size))
		binary.LittleEndian.PutUint64(num[16:], math.Float64bits(r.Cost))
		h.Write(num[:])
		for _, rel := range r.Relations {
			h.Write([]byte(rel))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requestHead is everything of an encoded request before the body length.
const requestHead = "POST /v1/reference HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "

// encode renders every request as the HTTP/1.1 bytes a client writes: the
// JSON body carries the fields loadgen sends (plan included) plus the
// record's logical time, so the server's λ estimates do not depend on how
// fast it answers.
func (s *stream) encode() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	s.arena = make([]byte, 0, len(s.reqs)*384)
	s.off = make([]uint32, 0, len(s.reqs)+1)
	s.body = make([]uint32, 0, len(s.reqs))
	for i := range s.reqs {
		r := &s.reqs[i]
		plan, _ := r.Plan.(*engine.Descriptor)
		buf.Reset()
		if err := enc.Encode(server.ReferenceRequest{QueryID: r.QueryID, Time: r.Time, Class: r.Class,
			Size: r.Size, Cost: r.Cost, Relations: r.Relations, Plan: plan}); err != nil {
			return fmt.Errorf("encoding request %d: %w", i, err)
		}
		body := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		s.off = append(s.off, uint32(len(s.arena)))
		s.arena = append(s.arena, requestHead...)
		s.arena = strconv.AppendInt(s.arena, int64(len(body)), 10)
		s.arena = append(s.arena, "\r\n\r\n"...)
		s.body = append(s.body, uint32(len(s.arena)))
		s.arena = append(s.arena, body...)
	}
	s.off = append(s.off, uint32(len(s.arena)))
	return nil
}

// wire returns request i as HTTP/1.1 bytes; jsonBody returns its body.
func (s *stream) wire(i int) []byte     { return s.arena[s.off[i]:s.off[i+1]] }
func (s *stream) jsonBody(i int) []byte { return s.arena[s.body[i]:s.off[i+1]] }

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
