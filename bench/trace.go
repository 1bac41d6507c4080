package main

// The traced run: one goroutine replays a fixed prefix of the workload's
// stream through every rung of the ladder, spans are kept in memory and
// written to bench/out/trace-<workload>.json when the run ends, and the
// per-layer metrics are derived from them. The prefix has a fixed length,
// so the layers' counts repeat exactly from run to run.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/shard"
)

// rungSummary is what the spans of one layer say about its references.
type rungSummary struct {
	refs             int
	nsPerRef         float64
	hitP50, missP50  int64
	missP99, refP999 int64
	invalMS, snapMS  []float64
	// selfInvalMS is the invalidate spans' own time: span minus children.
	selfInvalMS []float64
}

// summarize reads one layer's spans from request index from on: the
// measured references, as the end-to-end metrics are taken after the
// warm-up too.
func (t *tracer) summarize(layer uint8, from int) rungSummary {
	var s rungSummary
	var hits, misses, all []int64
	var total int64
	children := map[int32]int64{} // time covered by child spans, by parent
	for i := range t.spans {
		if sp := &t.spans[i]; sp.parent >= 0 {
			children[sp.parent] += sp.end - sp.start
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.layer != layer || int(sp.req) < from {
			continue
		}
		d := sp.end - sp.start
		switch sp.op {
		case opReference:
			total += d
			all = append(all, d)
			if sp.hit {
				hits = append(hits, d)
			} else {
				misses = append(misses, d)
			}
		case opInvalidate:
			s.invalMS = append(s.invalMS, float64(d)/1e6)
			s.selfInvalMS = append(s.selfInvalMS, float64(d-children[int32(i)])/1e6)
		case opSnapshot:
			s.snapMS = append(s.snapMS, float64(d)/1e6)
		}
	}
	for _, l := range [][]int64{hits, misses, all} {
		slices.Sort(l)
	}
	s.refs = len(all)
	if s.refs > 0 {
		s.nsPerRef = float64(total) / float64(s.refs)
	}
	s.hitP50, s.missP50, s.missP99 = percentile(hits, 0.5), percentile(misses, 0.5), percentile(misses, 0.99)
	s.refP999 = percentile(all, 0.999)
	return s
}

// writeSpans writes the spans as one JSON object with a row per span.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"layers\":[", workload, seed)
	for i, name := range layerNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString("],\"ops\":[")
	for i, name := range opNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString("],\"columns\":[\"layer\",\"op\",\"parent\",\"request\",\"start_ns\",\"end_ns\",\"hit\"],\"spans\":[\n")
	var row []byte
	for i := range t.spans {
		sp := &t.spans[i]
		row = append(row[:0], '[')
		for _, v := range []int64{int64(sp.layer), int64(sp.op), int64(sp.parent), int64(sp.req), sp.start, sp.end} {
			row = strconv.AppendInt(row, v, 10)
			row = append(row, ',')
		}
		if sp.hit {
			row = append(row, '1')
		} else {
			row = append(row, '0')
		}
		row = append(row, ']')
		if i < len(t.spans)-1 {
			row = append(row, ',')
		}
		row = append(row, '\n')
		w.Write(row)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heap is the allocation counters a rung's replay is bracketed with.
type heap struct{ mallocs, bytes uint64 }

func readHeap() heap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heap{m.Mallocs, m.TotalAlloc}
}

// tracedSpec is the workload as the ladder replays it: the fixed warm-up
// and a fixed count of measured references.
func tracedSpec(sp spec) spec {
	if sp.inproc {
		sp.warm = sp.traced // the block is both warm-up and measured pass
	}
	sp.measured = sp.traced
	return sp
}

// traceWorkload runs the ladder for one workload.
func traceWorkload(full spec, cfg runConfig) (*outcome, error) {
	sp := tracedSpec(full)
	st, err := generate(sp, cfg.seed)
	if err != nil {
		return nil, err
	}
	total := sp.warm + sp.measured
	o := &outcome{workload: sp.name, values: map[string]float64{}}
	v := o.values
	for _, m := range perLayer {
		v[m.Name] = 0
	}
	v["workload.gen_ms"], v["loadgen.encode_ms"], v["build.s"] = st.genMS, st.encodeMS, cfg.buildS
	o.note("stream sha256 %s, cache %d bytes; %d warm-up + %d measured references per rung", st.hash, st.capacity, sp.warm, sp.measured)

	rungs := 2
	if !sp.inproc {
		rungs = 4
	}
	tr := newTracer(rungs*total + 64*dims)
	refs := float64(sp.measured)

	// core
	cr, err := newCoreRung(st, tr)
	if err != nil {
		return nil, err
	}
	coreHits, h0, h1, _, err := replayTimed(st, cr)
	if err != nil {
		return nil, err
	}
	coreStats, resident, retained := cr.stats()
	cs := tr.summarize(layerCore, sp.warm)
	v["core.ns_per_ref"], v["core.hit_ns_p50"] = cs.nsPerRef, float64(cs.hitP50)
	v["core.miss_ns_p50"], v["core.miss_ns_p99"] = float64(cs.missP50), float64(cs.missP99)
	v["core.allocs_per_ref"] = float64(h1.mallocs-h0.mallocs) / refs
	v["core.bytes_per_ref"] = float64(h1.bytes-h0.bytes) / refs
	v["core.hits"], v["core.admissions"] = float64(coreStats.Hits), float64(coreStats.Admissions)
	v["core.rejections"], v["core.evictions"] = float64(coreStats.Rejections), float64(coreStats.Evictions)
	v["core.resident_sets"], v["core.retained_sets"] = float64(resident), float64(retained)
	v["core.csr"] = coreStats.CostSavingsRatio()
	o.check(coreHits == coreStats.Hits, "core rung returned %d hits, its Stats count %d", coreHits, coreStats.Hits)
	if err := cr.checkInvariants(); err != nil {
		o.check(false, "%v", err)
	}
	if sp.churn {
		o.note("core invalidate p50 %.3f ms, of which %.3f ms outside the 16 per-cache calls", median(cs.invalMS), median(cs.selfInvalMS))
	}

	// shard
	sc, err := newSharded(st.capacity, serveDefault)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	sr := &shardRung{sc: sc, tr: tr}
	_, h0, h1, tracedWall, err := replayTimed(st, sr)
	if err != nil {
		return nil, err
	}
	shardStats := sc.Stats()
	ss := tr.summarize(layerShard, sp.warm)
	v["shard.ns_per_ref"], v["shard.self_ns_per_ref"] = ss.nsPerRef, ss.nsPerRef-cs.nsPerRef
	v["shard.hit_ns_p50"], v["shard.miss_ns_p50"] = float64(ss.hitP50), float64(ss.missP50)
	v["shard.allocs_per_ref"] = float64(h1.mallocs-h0.mallocs) / refs
	v["shard.csr"] = shardStats.CostSavingsRatio()
	v["shard.invalidate_ms_p50"], v["shard.snapshot_ms_p50"] = median(ss.invalMS), median(ss.snapMS)
	v["shard.invalidate_dropped"] = float64(sr.dropped)
	v["shard.snapshot_max_lock_pause_us"] = float64(sr.maxPause) / 1e3
	o.check(shardStats.Stats == coreStats, "shard Stats differ from the 16 core caches summed:\n shard %+v\n core  %+v", shardStats.Stats, coreStats)
	if err := sc.CheckInvariants(); err != nil {
		o.check(false, "%v", err)
	}
	if sp.inproc {
		measuredHits := int64(0)
		for i := range tr.spans {
			if s := &tr.spans[i]; s.layer == layerShard && int(s.req) >= sp.warm && s.hit {
				measuredHits++
			}
		}
		o.check(measuredHits == int64(sp.measured), "%d of %d measured references hit; the hot stream must hit always", measuredHits, sp.measured)
	}
	if err := snapshotRoundTrip(o, st, sc); err != nil {
		return nil, err
	}

	boundary := boundaryStats{Stats: shardStats, resident: sc.Resident(), usedBytes: sc.UsedBytes()}
	if !sp.inproc {
		if boundary, err = traceOverHTTP(o, st, total, tr, cfg, ss, coreStats.CostSavingsRatio()); err != nil {
			return nil, err
		}
	}
	// The shard rung again with tracing off, bare and with each observer:
	// the difference from the traced replay is tracing's own cost, the
	// differences from the bare replay are the observers' taxes. These run
	// last because the tuner and the ghost matrix start background work
	// that must not sit beside another rung's replay.
	untraced, err := timeShard(st, serveDefault)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_frac"] = (float64(tracedWall)/refs - untraced) / untraced
	if sp.taxed {
		bare, err := timeShard(st, observers{})
		if err != nil {
			return nil, err
		}
		v["telemetry.tax_ns_per_ref"] = untraced - bare
		for _, tax := range []struct {
			name string
			obs  observers
		}{
			{"flight.tax_ns_per_ref", observers{flight: true}},
			{"whatif.tax_ns_per_ref", observers{whatif: true}},
			{"observers.all_tax_ns_per_ref", observers{telemetry: true, admission: true, flight: true, whatif: true}},
			// Last: on a miss-heavy stream the tuner's rounds outlive the
			// replay by minutes, and nothing may be measured beside them.
			{"admission.tax_ns_per_ref", observers{admission: true}},
		} {
			ns, err := timeShard(st, tax.obs)
			if err != nil {
				return nil, err
			}
			v[tax.name] = ns - bare
		}
		o.note("untraced shard replay: bare %.0f ns/ref, with telemetry (the serve default) %.0f ns/ref", bare, untraced)
	}

	v["serve.references"], v["serve.hits"] = float64(boundary.References), float64(boundary.Hits)
	v["serve.admissions"], v["serve.evictions"] = float64(boundary.Admissions), float64(boundary.Evictions)
	v["serve.rejections"], v["serve.invalidations"] = float64(boundary.Rejections), float64(boundary.Invalidations)
	v["serve.resident_sets"], v["serve.used_bytes"] = float64(boundary.resident), float64(boundary.usedBytes)
	o.attempted = int64(rungs * total)

	path := filepath.Join(cfg.root, "bench", "out", "trace-"+sp.name+".json")
	if err := tr.writeSpans(path, sp.name, cfg.seed); err != nil {
		return nil, err
	}
	o.note("%d spans written to %s", len(tr.spans), path)
	o.note("split of http.ns_per_ref: core %.1f%%, shard %.1f%%, server %.1f%%, http %.1f%%",
		share(v["core.ns_per_ref"], v["http.ns_per_ref"]), share(v["shard.self_ns_per_ref"], v["http.ns_per_ref"]),
		share(v["server.self_ns_per_ref"], v["http.ns_per_ref"]), share(v["http.self_ns_per_ref"], v["http.ns_per_ref"]))
	return o, nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// boundaryStats is the system's counters as read from outside: GET /stats
// for a daemon, Stats() for the in-process workload.
type boundaryStats struct {
	shard.Stats
	resident  int
	usedBytes int64
}

// traceOverHTTP runs the server and http rungs.
func traceOverHTTP(o *outcome, st *stream, total int, tr *tracer, cfg runConfig, ss rungSummary, coreCSR float64) (boundaryStats, error) {
	var none boundaryStats
	v, sp, refs := o.values, st.spec, float64(st.spec.measured)

	sc, err := newSharded(st.capacity, serveDefault)
	if err != nil {
		return none, err
	}
	defer sc.Close()
	rungSnapshots := ""
	if sp.churn {
		rungSnapshots = snapshotFile(cfg.root, sp.name, "server-rung")
	}
	vr := newServerRung(st, sc, rungSnapshots, tr)
	_, h0, h1, _, err := replayTimed(st, vr)
	if err != nil {
		return none, err
	}
	vs := tr.summarize(layerServer, sp.warm)
	v["server.ns_per_ref"], v["server.self_ns_per_ref"] = vs.nsPerRef, vs.nsPerRef-ss.nsPerRef
	v["server.allocs_per_ref"] = float64(h1.mallocs-h0.mallocs) / refs
	v["server.req_bytes_per_ref"], v["server.resp_bytes_per_ref"] = float64(vr.reqBytes)/float64(total), float64(vr.replyBytes)/float64(total)
	o.check(sc.Stats().CostSavingsRatio() == v["shard.csr"], "server rung csr %v differs from the shard rung's %v", sc.Stats().CostSavingsRatio(), v["shard.csr"])

	d, err := startFor(cfg, st)
	if err != nil {
		return none, err
	}
	c, err := dial(d.addr)
	if err != nil {
		d.kill()
		return none, err
	}
	hr := &httpRung{d: d, c: c, st: st, tr: tr}
	self0 := selfCPU()
	httpHits, _, _, _, replayErr := replayTimed(st, hr)
	self1 := selfCPU()
	final, statsErr := d.stats()
	c.close()
	_, _, stopErr := d.stop()
	if err := errors.Join(replayErr, statsErr, stopErr); err != nil {
		return none, err
	}
	hs := tr.summarize(layerHTTP, sp.warm)
	v["serve.boot_ms"] = d.bootMS
	v["http.ns_per_ref"], v["http.self_ns_per_ref"] = hs.nsPerRef, hs.nsPerRef-vs.nsPerRef
	v["serve.invalidate_ms_p50"], v["serve.snapshot_ms_p50"] = median(hs.invalMS), median(hs.snapMS)
	v["loadgen.cpu_us_per_ref"] = (self1 - self0) * 1e6 / float64(total)
	v["loadgen.ref_p999_us"], v["loadgen.samples"] = float64(hs.refP999)/1e3, float64(hs.refs)
	o.check(final.References == int64(total), "serve.references = %d, but %d references were sent", final.References, total)
	o.check(final.Hits+final.DerivedHits == httpHits, "serve.hits = %d, but the client counted %d", final.Hits+final.DerivedHits, httpHits)
	o.check(math.Abs(final.CostSavingsRatio-coreCSR) <= 0.01, "csr %.5f over HTTP, core.csr %.5f", final.CostSavingsRatio, coreCSR)
	if sp.churn {
		checkSnapshotRestores(o, st, snapshotFile(cfg.root, sp.name, "serve"), final.Resident)
	}
	return boundaryStats{Stats: final.Stats, resident: final.Resident, usedBytes: final.UsedBytes}, nil
}

// snapshotRoundTrip captures the cache into memory, restores it into a
// fresh cache and expects the same resident count.
func snapshotRoundTrip(o *outcome, st *stream, sc *shard.Sharded) error {
	var buf bytes.Buffer
	info, err := sc.StreamSnapshot(&buf)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fresh, err := newSharded(st.capacity, serveDefault)
	if err != nil {
		return err
	}
	defer fresh.Close()
	t0 := now()
	rep, err := fresh.Restore(&buf)
	o.values["shard.restore_ms"] = ms(since(t0))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	o.values["persist.snapshot_bytes"] = float64(info.Bytes)
	if info.Resident > 0 {
		o.values["persist.bytes_per_set"] = float64(info.Bytes) / float64(info.Resident)
	}
	o.check(rep.Resident == sc.Resident(), "snapshot restores %d resident sets of %d", rep.Resident, sc.Resident())
	return nil
}

// replayTimed replays the warm-up and then the measured references
// through the rung, bracketing the measured part with the heap counters
// and the clock.
func replayTimed(st *stream, r rung) (hits int64, h0, h1 heap, wall time.Duration, err error) {
	warm, total := st.spec.warm, st.spec.warm+st.spec.measured
	hits, err = replay(st, r, 0, warm)
	if err != nil {
		return
	}
	h0 = readHeap()
	t0 := now()
	measured, err := replay(st, r, warm, total)
	wall = since(t0)
	h1 = readHeap()
	return hits + measured, h0, h1, wall, err
}

// timeShard replays the stream through a fresh sharded cache with tracing
// off and returns the wall nanoseconds per measured reference: the least
// of as many replays as fit in about a second, at most five.
func timeShard(st *stream, obs observers) (float64, error) {
	best := math.Inf(1)
	var spent time.Duration
	idle := runtime.NumGoroutine()
	for rep := 0; rep < 5 && (rep == 0 || spent < time.Second); rep++ {
		sc, err := newSharded(st.capacity, obs)
		if err != nil {
			return 0, err
		}
		_, _, _, d, err := replayTimed(st, &shardRung{sc: sc})
		sc.Close()
		if err != nil {
			return 0, err
		}
		// The admission tuner scores its backlog on a goroutine of its own;
		// give it a moment to finish rather than run beside the next replay.
		for t1 := now(); runtime.NumGoroutine() > idle && since(t1) < time.Second; {
			time.Sleep(time.Millisecond)
		}
		spent += d
		best = min(best, float64(d)/float64(st.spec.measured))
	}
	return best, nil
}
