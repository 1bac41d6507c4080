package main

// The measured run, tracing off: set the workload up (several times, so
// set-up time is a median), drive it closed-loop from `clients` goroutines
// for the run's seconds, read the system's counters from outside, and
// check them.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// runConfig is what the command line (or the smoke test) chose for a run.
type runConfig struct {
	// root is the repository root; bin the daemon binary built from it and
	// buildS how long that build took.
	root   string
	bin    string
	buildS float64
	seed   int64
	// seconds is how long the measured phase runs with tracing off.
	seconds float64
	// setups is how many times a run sets the workload up; setup_s is the
	// median. clients is the number of closed-loop callers.
	setups  int
	clients int
}

// outcome is one workload's run: its metric values, the operation counts
// of the result line, and the checks that failed.
type outcome struct {
	workload  string
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	// notes are printed with the metrics: sample counts, stream hash,
	// context a number should not be read without.
	notes []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// measure runs one workload with tracing off.
func measure(sp spec, cfg runConfig) (*outcome, error) {
	if sp.inproc {
		return measureInproc(sp, cfg)
	}
	return measureHTTP(sp, cfg)
}

// sample is one individually timed reference: when it completed, in
// nanoseconds since the measured phase began, and how long it took.
type sample struct {
	at, lat int64
}

// windows is how many equal slices of the measured phase the throughput
// and latency metrics are computed over; the reported value is the median
// slice, which a single disturbed interval cannot move.
const windows = 5

// windowed computes refs/s and the latency percentiles per window and
// returns the medians. Each sample stands for refsPerSample references
// (64 in-process, where calls are timed in chunks).
func windowed(logs [][]sample, refsPerSample int, wall time.Duration) (refsPerS, p50us, p99us float64, n int) {
	width := float64(wall) / windows
	lat := make([][]int64, windows)
	for _, lg := range logs {
		for _, s := range lg {
			w := min(int(float64(s.at)/width), windows-1)
			lat[w] = append(lat[w], s.lat)
		}
	}
	var rates, p50s, p99s []float64
	for _, l := range lat {
		slices.Sort(l)
		n += len(l)
		rates = append(rates, float64(len(l)*refsPerSample)/(width/1e9))
		p50s = append(p50s, float64(percentile(l, 0.50))/1e3)
		p99s = append(p99s, float64(percentile(l, 0.99))/1e3)
	}
	return median(rates), median(p50s), median(p99s), n
}

// clientLog is what one closed-loop caller saw.
type clientLog struct {
	samples []sample
	refs    int64
	hits    int64
	// controls counts the invalidate and snapshot calls this client made;
	// failed counts failed operations of any type.
	controls int64
	failed   int64
	invalMS  []float64
	snapMS   []float64
	firstErr error
}

// httpRun is one set-up daemon with its stream and open connections.
type httpRun struct {
	st    *stream
	d     *daemon
	conns []*conn
	// next is the next global stream index to send.
	next atomic.Int64
	// warm is the callers' view of the warm-up; warmStats the daemon's.
	warm      []clientLog
	warmStats server.StatsResponse
	setupS    float64
}

// setupHTTP generates the stream, boots the daemon, opens one connection
// per client and replays the warm-up prefix.
func setupHTTP(sp spec, cfg runConfig) (*httpRun, error) {
	t0 := now()
	st, err := generate(sp, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startFor(cfg, st)
	if err != nil {
		return nil, err
	}
	r := &httpRun{st: st, d: d}
	for i := 0; i < cfg.clients; i++ {
		c, err := dial(d.addr)
		if err != nil {
			r.abandon()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	r.warm, _ = r.drive(sp.warm, 0, false)
	if r.warmStats, err = d.stats(); err != nil {
		r.abandon()
		return nil, fmt.Errorf("reading /stats after warm-up: %w", err)
	}
	r.setupS = since(t0).Seconds()
	return r, nil
}

// abandon tears the run down without reading anything from it.
func (r *httpRun) abandon() {
	for _, c := range r.conns {
		c.close()
	}
	r.d.kill()
}

// drive sends stream indices up to limit closed-loop from every
// connection: a caller draws the next index, waits for its reply, and
// stops once the stream is spent or, with dur > 0, once a reply lands
// after dur. With record set it keeps one sample per reference and makes
// the workload's churn calls. It returns each caller's log and the time
// of the last reply.
func (r *httpRun) drive(limit int, dur time.Duration, record bool) ([]clientLog, time.Duration) {
	logs := make([]clientLog, len(r.conns))
	churn := record && r.st.spec.churn
	start := now()
	var wg sync.WaitGroup
	for c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[c]
			if record {
				lg.samples = make([]sample, 0, (limit-r.st.spec.warm)/len(r.conns)+1)
			}
			for {
				i := int(r.next.Add(1) - 1)
				if i >= limit {
					return
				}
				if churn {
					r.churn(lg, i-r.st.spec.warm)
				}
				t0 := since(start)
				hit, err := r.conns[c].reference(r.st.wire(i))
				t1 := since(start)
				lg.refs++
				if err != nil {
					lg.fail(fmt.Errorf("reference %d: %w", i, err))
					// The connection's framing is lost; continue on a new one.
					r.conns[c].close()
					if r.conns[c], err = dial(r.d.addr); err != nil {
						return
					}
					continue
				}
				if hit {
					lg.hits++
				}
				if record {
					lg.samples = append(lg.samples, sample{int64(t1), int64(t1 - t0)})
				}
				if dur > 0 && t1 >= dur {
					return
				}
			}
		}()
	}
	wg.Wait()
	return logs, since(start)
}

func (lg *clientLog) fail(err error) {
	lg.failed++
	if lg.firstErr == nil {
		lg.firstErr = err
	}
}

// churn makes the control calls that precede measured reference j on the
// client that drew it.
func (r *httpRun) churn(lg *clientLog, j int) {
	if j%invalidateEvery == 0 {
		t0 := now()
		err := r.d.invalidate(churnRelation(j))
		lg.invalMS = append(lg.invalMS, ms(since(t0)))
		lg.controls++
		if err != nil {
			lg.fail(err)
		}
	}
	if j%snapshotEvery == 0 {
		t0 := now()
		err := r.d.snapshot()
		lg.snapMS = append(lg.snapMS, ms(since(t0)))
		lg.controls++
		if err != nil {
			lg.fail(err)
		}
	}
}

// merged sums callers' logs.
func merged(logs []clientLog) (m clientLog) {
	for i := range logs {
		lg := &logs[i]
		m.refs += lg.refs
		m.hits += lg.hits
		m.controls += lg.controls
		m.failed += lg.failed
		m.invalMS = append(m.invalMS, lg.invalMS...)
		m.snapMS = append(m.snapMS, lg.snapMS...)
		if m.firstErr == nil {
			m.firstErr = lg.firstErr
		}
	}
	return m
}

func measureHTTP(sp spec, cfg runConfig) (*outcome, error) {
	var setupS []float64
	var r *httpRun
	for k := 0; k < cfg.setups; k++ {
		var err error
		if r, err = setupHTTP(sp, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, r.setupS)
		if k < cfg.setups-1 {
			r.abandon()
		}
	}
	st := r.st
	self0 := selfCPU()
	logs, wall := r.drive(len(st.reqs), time.Duration(cfg.seconds*float64(time.Second)), true)
	self1 := selfCPU()
	final, statsErr := r.d.stats()
	for _, c := range r.conns {
		c.close()
	}
	serverCPU, peak, stopErr := r.d.stop()
	if statsErr != nil {
		return nil, fmt.Errorf("reading /stats after the measured phase: %w", statsErr)
	}
	if stopErr != nil {
		return nil, stopErr
	}

	warm, meas := merged(r.warm), merged(logs)
	perClient := make([][]sample, len(logs))
	for i := range logs {
		perClient[i] = logs[i].samples
	}
	refsPerS, p50, p99, n := windowed(perClient, 1, wall)
	sent := warm.refs + meas.refs

	o := &outcome{workload: sp.name, values: map[string]float64{
		"setup_s":        median(setupS),
		"refs_per_s":     refsPerS,
		"ref_p50_us":     p50,
		"ref_p99_us":     p99,
		"csr":            final.CostSavingsRatio,
		"cpu_us_per_ref": serverCPU * 1e6 / float64(sent),
		"peak_rss_mb":    peak,
	}}
	o.attempted = sent + meas.controls
	o.failed = warm.failed + meas.failed
	o.note("stream sha256 %s, cache %d bytes, %d clients", st.hash, st.capacity, len(r.conns))
	o.note("set-up times %.3f s (gen %.0f ms, encode %.0f ms, boot %.1f ms in the last)", setupS, st.genMS, st.encodeMS, r.d.bootMS)
	o.note("measured %d references in %.3f s (%.0f/s overall); %d latency samples, %d beyond p99 per window",
		meas.refs, wall.Seconds(), float64(meas.refs)/wall.Seconds(), n, n/windows/100)
	o.note("csr %.5f over all %d references, %.5f at the end of the %d-reference warm-up; hit ratio %.4f",
		final.CostSavingsRatio, sent, r.warmStats.CostSavingsRatio, sp.warm, final.HitRatio)
	o.note("generator cpu %.1f us/ref; server: %d admissions, %d evictions, %d rejections, %d invalidated, %d resident",
		(self1-self0)*1e6/float64(meas.refs), final.Admissions, final.Evictions, final.Rejections, final.Invalidations, final.Resident)
	if sp.churn {
		o.note("%d invalidate calls p50 %.2f ms, %d snapshot calls p50 %.2f ms",
			len(meas.invalMS), median(meas.invalMS), len(meas.snapMS), median(meas.snapMS))
	}

	if err := errors.Join(warm.firstErr, meas.firstErr); err != nil {
		o.check(false, "%d operations failed, the first: %v", o.failed, err)
	}
	if meas.refs == int64(sp.measured) {
		o.note("the stream was spent before the %.1f s were over; the rates stand, over a shorter phase", cfg.seconds)
	}
	o.check(final.References == sent, "serve.references = %d, but %d references were sent", final.References, sent)
	o.check(final.Hits+final.DerivedHits == warm.hits+meas.hits,
		"serve.hits = %d, but clients counted %d", final.Hits+final.DerivedHits, warm.hits+meas.hits)
	if sp.cacheFrac < 1 && !sp.tpcd {
		o.check(r.warmStats.Evictions > 0, "no eviction by the end of the warm-up")
	}
	if err := checkWarmCSR(o, st, r.warmStats.CostSavingsRatio); err != nil {
		return nil, err
	}
	if sp.churn {
		checkSnapshotRestores(o, st, snapshotFile(cfg.root, sp.name, "serve"), final.Resident)
	}
	return o, nil
}

// checkWarmCSR replays the warm-up prefix through the core rung — the
// serial reference implementation — and holds the measured csr to it.
// Concurrent callers reorder neighbouring references, hence the margin.
func checkWarmCSR(o *outcome, st *stream, got float64) error {
	oracle, err := newCoreRung(st, nil)
	if err != nil {
		return err
	}
	if _, err := replay(st, oracle, 0, st.spec.warm); err != nil {
		return err
	}
	stats, _, _ := oracle.stats()
	want := stats.CostSavingsRatio()
	o.check(math.Abs(got-want) <= 0.01, "csr %.5f after the warm-up, serial core replay gives %.5f", got, want)
	if err := oracle.checkInvariants(); err != nil {
		o.check(false, "oracle: %v", err)
	}
	return nil
}

// checkSnapshotRestores restores the daemon's last snapshot file into a
// fresh in-process cache and expects the resident count the daemon
// reported before it shut down.
func checkSnapshotRestores(o *outcome, st *stream, path string, resident int) {
	sc, err := newSharded(st.capacity, serveDefault)
	if err != nil {
		o.check(false, "restore: %v", err)
		return
	}
	defer sc.Close()
	rep, found, err := sc.RestoreFile(path)
	o.check(err == nil && found, "restoring %s: found=%v err=%v", path, found, err)
	o.check(rep.Resident == resident, "snapshot restores %d resident sets, the daemon reported %d", rep.Resident, resident)
	if err := sc.CheckInvariants(); err != nil {
		o.check(false, "restored cache: %v", err)
	}
}

// inprocChunk is how many consecutive references an in-process caller
// draws and times at once. A latency sample is a chunk's time divided by
// its length: a single sub-microsecond call timed alone sits at the knee
// between calls the collector disturbed and calls it did not, and its p99
// swung by ±12% between runs of the same code.
const inprocChunk = 64

// driveInproc calls sc.Reference closed-loop from `clients` goroutines
// over stream indices from *next up to limit (0 = no limit, the stream
// cycles) until dur has passed (0 = until the limit). It returns each
// caller's samples, the misses seen, the references made and the wall
// time.
func driveInproc(st *stream, sc *shard.Sharded, next *atomic.Int64, limit int, dur time.Duration, clients int) (logs [][]sample, misses, refs int64, wall time.Duration) {
	logs = make([][]sample, clients)
	var missed, made atomic.Int64
	start := now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var miss, n int64
			defer func() { missed.Add(miss); made.Add(n) }()
			for {
				base := int(next.Add(inprocChunk) - inprocChunk)
				end := base + inprocChunk
				if limit > 0 {
					if base >= limit {
						return
					}
					end = min(end, limit)
				}
				t0 := since(start)
				for i := base; i < end; i++ {
					if hit, _ := sc.Reference(st.at(i)); !hit {
						miss++
					}
				}
				t1 := since(start)
				n += int64(end - base)
				logs[c] = append(logs[c], sample{int64(t1), int64(t1-t0) / int64(end-base)})
				if dur > 0 && t1 >= dur {
					return
				}
			}
		}()
	}
	wg.Wait()
	return logs, missed.Load(), made.Load(), since(start)
}

func measureInproc(sp spec, cfg runConfig) (*outcome, error) {
	var setupS []float64
	var st *stream
	var sc *shard.Sharded
	var next atomic.Int64
	var self0 float64
	for k := 0; k < cfg.setups; k++ {
		if sc != nil {
			sc.Close()
		}
		t0 := now()
		var err error
		if st, err = generate(sp, cfg.seed); err != nil {
			return nil, err
		}
		if sc, err = newSharded(st.capacity, serveDefault); err != nil {
			return nil, err
		}
		self0 = selfCPU()
		next.Store(0)
		driveInproc(st, sc, &next, sp.warm, 0, cfg.clients)
		setupS = append(setupS, since(t0).Seconds())
	}
	defer sc.Close()
	warmStats := sc.Stats()
	// Return the set-ups' garbage to the system and restart the peak, so
	// that peak_rss_mb is the stream, the cache and what the measured phase
	// itself allocates, not a number that depends on when the collector
	// last ran during set-up.
	debug.FreeOSMemory()
	resetPeakRSS()
	next.Store(int64(sp.warm))
	logs, misses, refs, wall := driveInproc(st, sc, &next, 0, time.Duration(cfg.seconds*float64(time.Second)), cfg.clients)
	self1 := selfCPU()
	peak, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	final := sc.Stats()
	refsPerS, p50, p99, n := windowed(logs, inprocChunk, wall)
	served := int64(sp.warm) + refs

	o := &outcome{workload: sp.name, attempted: served, values: map[string]float64{
		"setup_s":        median(setupS),
		"refs_per_s":     refsPerS,
		"ref_p50_us":     p50,
		"ref_p99_us":     p99,
		"csr":            final.CostSavingsRatio(),
		"cpu_us_per_ref": (self1 - self0) * 1e6 / float64(served),
		"peak_rss_mb":    peak,
	}}
	o.note("stream sha256 %s, cache %d bytes, %d clients", st.hash, st.capacity, cfg.clients)
	o.note("set-up times %.3f s (gen %.0f ms in the last)", setupS, st.genMS)
	o.note("measured %d references in %.3f s (%.0f/s overall); timed in chunks of %d calls: %d latency samples, %d beyond p99 per window",
		refs, wall.Seconds(), float64(refs)/wall.Seconds(), inprocChunk, n, n/windows/100)
	o.note("csr %.5f over all %d references, %.5f at the end of the %d-reference warm-up; %d resident",
		final.CostSavingsRatio(), served, warmStats.CostSavingsRatio(), sp.warm, sc.Resident())

	o.check(misses == 0, "%d of %d measured references missed; the hot stream must hit always", misses, refs)
	o.check(final.References == served, "Stats().References = %d, but %d references were made", final.References, served)
	if err := sc.CheckInvariants(); err != nil {
		o.check(false, "%v", err)
	}
	if err := checkWarmCSR(o, st, warmStats.CostSavingsRatio()); err != nil {
		return nil, err
	}
	return o, nil
}
