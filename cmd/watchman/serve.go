package main

// The serving side of the CLI: `watchman serve` runs the sharded cache as
// an HTTP daemon, `watchman loadgen` replays a trace against either a live
// daemon or an in-process sharded cache at a configurable concurrency and
// reports throughput and the paper's metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/whatif"
)

// shardedFlags is the flag subset shared by serve and loadgen that shapes
// the sharded cache.
type shardedFlags struct {
	policy *string
	shards *int
	k      *int
}

func addShardedFlags(fs *flag.FlagSet) shardedFlags {
	return shardedFlags{
		policy: fs.String("policy", "lnc-ra", "cache policy"),
		shards: fs.Int("shards", 16, "number of cache shards (power of two)"),
		k:      fs.Int("k", 4, "reference-window size K"),
	}
}

// coreConfig resolves the flags into a per-cache configuration.
func (f shardedFlags) coreConfig(capacity int64) (core.Config, error) {
	pk, err := core.ParsePolicy(*f.policy)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Capacity: capacity, K: *f.k, Policy: pk}, nil
}

// build constructs the sharded cache from the parsed flags. rec may be
// nil (no flight recorder attached).
func (f shardedFlags) build(capacity int64, rec *flight.Recorder) (*shard.Sharded, error) {
	cfg, err := f.coreConfig(capacity)
	if err != nil {
		return nil, err
	}
	return shard.New(shard.Config{Shards: *f.shards, Cache: cfg, Recorder: rec})
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "total cache capacity in bytes")
	adaptive := fs.Bool("adaptive", false, "enable the shadow-tuned adaptive admitter (forces -policy lnc-ra)")
	deriveOn := fs.Bool("derive", false, "enable semantic derivation: answer misses from cached sets whose plan descriptors subsume the request")
	tuneWindow := fs.Int("tune-window", admission.DefaultWindow, "adaptive tuner: references per tuning round")
	telemetryOn := fs.Bool("telemetry", true, "attach the telemetry registry (GET /metrics, per-class /stats sections)")
	snapshotPath := fs.String("snapshot-path", "", "snapshot file: restore cache state from it on boot (warm restart) and persist to it (POST /v1/snapshot, periodic with -snapshot-interval, final flush on graceful shutdown)")
	snapshotInterval := fs.Duration("snapshot-interval", 0, "background snapshot period (0 = on-demand and shutdown only; needs -snapshot-path)")
	debugOn := fs.Bool("debug", false, "attach the flight recorder (GET /debug/requests, GET /v1/explain/{id}, stage-latency histograms) and mount pprof under /debug/pprof")
	flightSample := fs.Int("flight-sample", flight.DefaultSampleEvery, "flight recorder: capture one span in N (1 = every span; needs -debug)")
	flightSlow := fs.Duration("flight-slow", flight.DefaultSlowThreshold, "flight recorder: always capture spans slower than this (needs -debug)")
	whatifOn := fs.Bool("whatif", false, "attach the ghost-cache what-if matrix (GET /v1/whatif, watchman_whatif_* metrics): live counterfactual CSR across a capacity ladder × policy grid")
	whatifSample := fs.Int("whatif-sample", whatif.DefaultSampleRate, "what-if matrix: replay 1 in R references into ghosts scaled by 1/R (needs -whatif)")
	sf := addShardedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*adaptive || *snapshotPath == "" || !*debugOn || !*whatifOn {
		// Reject rather than silently ignore flags that have no effect in
		// this configuration (same strictness as loadgen's -addr).
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch {
			case f.Name == "tune-window" && !*adaptive:
				ignored = append(ignored, "-"+f.Name+" (needs -adaptive)")
			case f.Name == "snapshot-interval" && *snapshotPath == "":
				ignored = append(ignored, "-"+f.Name+" (needs -snapshot-path)")
			case (f.Name == "flight-sample" || f.Name == "flight-slow") && !*debugOn:
				ignored = append(ignored, "-"+f.Name+" (needs -debug)")
			case f.Name == "whatif-sample" && !*whatifOn:
				ignored = append(ignored, "-"+f.Name+" (needs -whatif)")
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("serve: %s", strings.Join(ignored, ", "))
		}
	}
	if *flightSample < 1 {
		return fmt.Errorf("serve: -flight-sample must be at least 1, got %d", *flightSample)
	}
	if *snapshotInterval < 0 {
		return fmt.Errorf("serve: negative -snapshot-interval %v", *snapshotInterval)
	}
	cfg, err := sf.coreConfig(*cacheBytes)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var tuner *admission.Tuner
	if *adaptive {
		cfg.Policy = core.LNCRA
		tuner, err = admission.New(admission.Config{
			Capacity: *cacheBytes,
			K:        cfg.K,
			Window:   *tuneWindow,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	var reg *telemetry.Registry
	if *telemetryOn {
		reg = telemetry.NewRegistry()
	}
	var deriver core.Deriver
	if *deriveOn {
		// Server-side derivation is descriptor-driven: clients report
		// sizes and costs, so no engine is needed for estimation, and
		// payload rewriting happens only for in-process engine results.
		deriver = derive.New(derive.Config{})
	}
	var rec *flight.Recorder
	if *debugOn {
		rec = flight.New(flight.Config{
			SampleEvery:   *flightSample,
			SlowThreshold: *flightSlow,
			Registry:      reg,
		})
	}
	var ghosts *whatif.Matrix
	if *whatifOn {
		if *whatifSample < 1 {
			return fmt.Errorf("serve: -whatif-sample must be at least 1, got %d", *whatifSample)
		}
		ghosts, err = whatif.New(whatif.Config{Base: cfg, SampleRate: *whatifSample})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	sc, err := shard.New(shard.Config{
		Shards:   *sf.shards,
		Cache:    cfg,
		Tuner:    tuner,
		Registry: reg,
		Deriver:  deriver,
		Recorder: rec,
		WhatIf:   ghosts,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var snapshotter *shard.Snapshotter
	hsrv := server.New(sc)
	if *debugOn {
		hsrv.EnableProfiling()
	}
	if *snapshotPath != "" {
		// Warm restart: restore before the listener exists, so the first
		// request already sees the recovered residency and θ.
		rep, restored, err := sc.RestoreFile(*snapshotPath)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if restored {
			msg := fmt.Sprintf("watchman: restored %d resident + %d retained sets from %s",
				rep.Resident, rep.Retained, *snapshotPath)
			if rep.ThetaRestored {
				msg += fmt.Sprintf(" (admission θ=%g)", rep.Theta)
			}
			if rep.DemotedResident > 0 || rep.Dropped > 0 {
				msg += fmt.Sprintf("; %d demoted, %d dropped (capacity/policy changed)",
					rep.DemotedResident, rep.Dropped)
			}
			fmt.Fprintln(os.Stderr, msg)
		} else {
			fmt.Fprintf(os.Stderr, "watchman: no snapshot at %s, starting cold\n", *snapshotPath)
		}
		snapshotter = sc.NewSnapshotter(*snapshotPath, *snapshotInterval)
		hsrv.SetSnapshotter(snapshotter)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: hsrv.Handler(),
		// Bound slow clients: without these, a stalled sender pins a
		// goroutine and file descriptor forever (slowloris).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	policyDesc := cfg.Policy.String()
	if tuner != nil {
		policyDesc += " adaptive"
	}
	if deriver != nil {
		policyDesc += " +derive"
	}
	if reg != nil {
		policyDesc += ", telemetry on"
	}
	if rec != nil {
		policyDesc += fmt.Sprintf(", debug on (1/%d spans)", *flightSample)
	}
	if ghosts != nil {
		policyDesc += fmt.Sprintf(", what-if on (%d ghosts, 1/%d refs)", ghosts.CellCount(), ghosts.SampleRate())
	}
	if snapshotter != nil {
		policyDesc += ", snapshots " + *snapshotPath
	}
	fmt.Fprintf(os.Stderr, "watchman: serving %s cache (%d shards, %s) on %s\n",
		policyDesc, sc.NumShards(), metrics.Bytes(*cacheBytes), *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fmt.Fprintln(os.Stderr, "watchman: shutting down")
	err = srv.Shutdown(shutCtx)
	// Stop the what-if worker once the listener has drained: no new
	// references arrive, so the ghosts have seen the whole stream.
	sc.Close()
	if snapshotter != nil {
		// Final flush after the listener drains: everything learned since
		// the last periodic snapshot survives the SIGTERM.
		info, serr := snapshotter.Close()
		if serr != nil {
			if err == nil {
				err = fmt.Errorf("serve: final snapshot: %w", serr)
			}
			fmt.Fprintf(os.Stderr, "watchman: final snapshot failed: %v\n", serr)
		} else {
			fmt.Fprintf(os.Stderr, "watchman: final snapshot: %d resident sets, %s (%d bytes, %v, max lock pause %v)\n",
				info.Resident, info.Path, info.Bytes,
				info.Elapsed.Round(time.Millisecond), info.MaxLockPause.Round(time.Microsecond))
		}
	}
	return err
}

// referencer replays one trace record and reports whether it hit.
type referencer func(rec *trace.Record) (bool, error)

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required; generate with 'watchman trace')")
	concurrency := fs.Int("concurrency", 64, "number of concurrent replay workers")
	addr := fs.String("addr", "", "replay against a live server at this base URL (e.g. http://localhost:8080); empty = in-process cache")
	cachePct := fs.Float64("cache-pct", 1, "in-process cache size as % of database size")
	cacheBytes := fs.Int64("cache-bytes", 0, "in-process cache size in bytes (overrides -cache-pct)")
	compareSerial := fs.Bool("compare-serial", false, "also replay serially through one core cache and report the CSR delta")
	slowlog := fs.Int("slowlog", 0, "after the replay, print the N slowest recorded spans (in-process: attaches a flight recorder; with -addr: fetches /debug/requests?slow=1 from the server)")
	jsonOut := fs.Bool("json", false, "print the final run summary as a single JSON line instead of the table")
	sf := addShardedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("loadgen: -i is required")
	}
	if *concurrency < 1 {
		return fmt.Errorf("loadgen: -concurrency must be at least 1")
	}
	if *slowlog < 0 {
		return fmt.Errorf("loadgen: negative -slowlog %d", *slowlog)
	}
	if *jsonOut && *slowlog > 0 {
		return fmt.Errorf("loadgen: -slowlog prints a table and would corrupt the -json line; drop one")
	}
	if *addr != "" {
		if *compareSerial {
			return fmt.Errorf("loadgen: -compare-serial needs the in-process cache; drop -addr")
		}
		// The cache-shaping flags configure the in-process cache only; a
		// live server was shaped at its own startup. Reject rather than
		// silently attribute the results to a configuration never in use.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "policy", "shards", "k", "cache-pct", "cache-bytes":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("loadgen: %s configure the in-process cache and have no effect with -addr (the server was configured at startup)",
				strings.Join(ignored, ", "))
		}
	}
	tr, err := loadTrace(*in)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}

	var ref referencer
	var sc *shard.Sharded
	var rec *flight.Recorder
	var client *http.Client
	target := "in-process"
	capacity := *cacheBytes
	if *addr != "" {
		base := strings.TrimRight(*addr, "/")
		target = base
		client = &http.Client{
			Timeout: 30 * time.Second,
			// The default transport keeps only 2 idle conns per host; at
			// -concurrency 64 that measures connection churn, not the
			// server. Keep one warm connection per worker.
			Transport: &http.Transport{
				MaxIdleConns:        *concurrency,
				MaxIdleConnsPerHost: *concurrency,
			},
		}
		ref = func(rec *trace.Record) (bool, error) {
			return postReference(client, base, rec)
		}
	} else {
		if capacity <= 0 {
			capacity = sim.CacheBytesForFraction(tr, *cachePct)
		}
		if *slowlog > 0 {
			// The user asked for the slow log, so capture every span: the
			// sampled default is for always-on production serving, not a
			// bounded measurement run.
			rec = flight.New(flight.Config{SampleEvery: 1})
		}
		sc, err = sf.build(capacity, rec)
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		ref = func(rec *trace.Record) (bool, error) {
			hit, _ := sc.Reference(sim.Request(rec))
			return hit, nil
		}
	}

	hits, elapsed, lats, err := replayConcurrent(tr, *concurrency, ref)
	if err != nil {
		return err
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := latPercentile(lats, 0.50), latPercentile(lats, 0.99)

	sum := loadgenSummary{
		Trace:        tr.Name,
		Target:       target,
		Concurrency:  *concurrency,
		Records:      tr.Len(),
		WallSeconds:  elapsed.Seconds(),
		RefsPerSec:   float64(tr.Len()) / elapsed.Seconds(),
		ClientHits:   hits,
		P50LatencyMS: durationMS(p50),
		P99LatencyMS: durationMS(p99),
	}
	t := metrics.NewTable(
		fmt.Sprintf("loadgen %s → %s, concurrency %d", tr.Name, target, *concurrency),
		"metric", "value")
	t.AddRow("records replayed", fmt.Sprint(tr.Len()))
	t.AddRow("wall time", elapsed.Round(time.Millisecond).String())
	t.AddRow("throughput (refs/s)", fmt.Sprintf("%.0f", sum.RefsPerSec))
	t.AddRow("client-observed hits", fmt.Sprint(hits))
	t.AddRow("p50 latency", p50.String())
	t.AddRow("p99 latency", p99.String())
	if sc != nil {
		st := sc.Stats()
		sum.CSR = ptr(st.CostSavingsRatio())
		sum.HitRatio = ptr(st.HitRatio())
		sum.Admissions = st.Admissions
		sum.Evictions = st.Evictions
		sum.Resident = sc.Resident()
		t.AddRow("cost savings ratio", metrics.Ratio(st.CostSavingsRatio()))
		t.AddRow("hit ratio", metrics.Ratio(st.HitRatio()))
		t.AddRow("admissions", fmt.Sprint(st.Admissions))
		t.AddRow("evictions", fmt.Sprint(st.Evictions))
		t.AddRow("resident sets", fmt.Sprint(sc.Resident()))
		if tn := sc.Tuner(); tn != nil {
			sum.Theta = ptr(tn.Threshold())
		}
		if *compareSerial {
			// Same configuration as each shard, minus the sharding.
			cfg, err := sf.coreConfig(capacity)
			if err != nil {
				return err
			}
			serial, _, err := sim.Replay(tr, cfg)
			if err != nil {
				return err
			}
			sum.SerialCSR = ptr(serial.CSR())
			sum.CSRDelta = ptr(st.CostSavingsRatio() - serial.CSR())
			t.AddRow("serial core CSR", metrics.Ratio(serial.CSR()))
			t.AddRow("CSR delta", fmt.Sprintf("%+.4f", st.CostSavingsRatio()-serial.CSR()))
		}
	} else {
		if csr, hr, err := fetchServerRatios(client, target); err == nil {
			sum.CSR, sum.HitRatio = ptr(csr), ptr(hr)
			t.AddRow("server cost savings ratio", metrics.Ratio(csr))
			t.AddRow("server hit ratio", metrics.Ratio(hr))
		} else {
			fmt.Fprintf(os.Stderr, "watchman: could not fetch server stats: %v\n", err)
		}
		if theta, ok, err := fetchServerTheta(client, target); err == nil && ok {
			sum.Theta = ptr(theta)
			t.AddRow("server admission θ", fmt.Sprintf("%g", theta))
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "watchman: could not fetch server admission state: %v\n", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		return enc.Encode(sum)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if *slowlog > 0 {
		return printSlowlog(rec, client, target, *slowlog)
	}
	return nil
}

// loadgenSummary is the -json shape of the final run report: one line,
// mirroring the human-readable table. Pointer fields appear only when the
// run produced them (in-process vs remote, -compare-serial,
// adaptive admission).
type loadgenSummary struct {
	Trace        string   `json:"trace"`
	Target       string   `json:"target"`
	Concurrency  int      `json:"concurrency"`
	Records      int      `json:"records"`
	WallSeconds  float64  `json:"wall_seconds"`
	RefsPerSec   float64  `json:"refs_per_sec"`
	ClientHits   int64    `json:"client_hits"`
	P50LatencyMS float64  `json:"p50_latency_ms"`
	P99LatencyMS float64  `json:"p99_latency_ms"`
	CSR          *float64 `json:"csr,omitempty"`
	HitRatio     *float64 `json:"hit_ratio,omitempty"`
	Admissions   int64    `json:"admissions,omitempty"`
	Evictions    int64    `json:"evictions,omitempty"`
	Resident     int      `json:"resident,omitempty"`
	Theta        *float64 `json:"theta,omitempty"`
	SerialCSR    *float64 `json:"serial_csr,omitempty"`
	CSRDelta     *float64 `json:"csr_delta,omitempty"`
}

func ptr[T any](v T) *T { return &v }

// durationMS renders a duration as fractional milliseconds.
func durationMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latPercentile reads the p-quantile (nearest-rank) off an ascending
// latency slice.
func latPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// fetchServerTheta reads the live server's adaptive admission threshold;
// ok is false when the server runs a static admission policy.
func fetchServerTheta(client *http.Client, base string) (theta float64, ok bool, err error) {
	resp, err := client.Get(base + "/v1/admission")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, false, fmt.Errorf("server returned %s: %s", resp.Status, msg)
	}
	var st server.AdmissionResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, false, err
	}
	return st.Threshold, st.Enabled, nil
}

// printSlowlog renders the N slowest recorded spans after a replay. With
// an in-process recorder it reads the rings directly; against a live
// server it fetches /debug/requests?slow=1, and a 404 (no -debug on the
// server) degrades to a stderr note rather than failing the run.
func printSlowlog(rec *flight.Recorder, client *http.Client, base string, n int) error {
	var spans []server.SpanJSON
	coverage := "every span recorded"
	if rec != nil {
		for _, sp := range rec.Slowest(n) {
			spans = append(spans, server.NewSpanJSON(sp))
		}
	} else {
		coverage = "server-sampled; slow spans always captured"
		var err error
		if spans, err = fetchSlowlog(client, base, n); err != nil {
			fmt.Fprintf(os.Stderr, "watchman: slowlog: %v\n", err)
			return nil
		}
	}
	t := metrics.NewTable(
		fmt.Sprintf("slow log: %d slowest recorded spans (%s)", len(spans), coverage),
		"query id", "outcome", "total", "stages")
	for _, sp := range spans {
		t.AddRow(clipID(sp.ID, 64), sp.Outcome, time.Duration(sp.TotalNanos).String(), formatStages(sp.Stages))
	}
	fmt.Println()
	return t.Render(os.Stdout)
}

// formatStages renders a stage→nanoseconds map as "load=1.2ms lookup=3µs",
// largest stage first.
func formatStages(stages map[string]int64) string {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if stages[names[i]] != stages[names[j]] {
			return stages[names[i]] > stages[names[j]]
		}
		return names[i] < names[j]
	})
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%s", name, time.Duration(stages[name])))
	}
	return strings.Join(parts, " ")
}

// fetchSlowlog pulls the slow log from a live server's flight recorder.
func fetchSlowlog(client *http.Client, base string, n int) ([]server.SpanJSON, error) {
	resp, err := client.Get(fmt.Sprintf("%s/debug/requests?slow=1&n=%d", base, n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("server has no flight recorder (restart it with -debug)")
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, msg)
	}
	var out server.DebugRequestsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}

// replayConcurrent streams the trace through ref from n workers pulling
// records off one shared cursor, preserving approximate global order. The
// returned latency slice holds one per-reference duration per replayed
// record (indexed by record position up to where the replay reached), for
// the percentile rows of the summary.
func replayConcurrent(tr *trace.Trace, n int, ref referencer) (hits int64, elapsed time.Duration, lats []time.Duration, err error) {
	var next, hitCount atomic.Int64
	// Pointer CAS keeps the stored type uniform: atomic.Value would panic
	// if two workers raced to store errors of different concrete types.
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	lats = make([]time.Duration, tr.Len())
	start := monotime()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(tr.Len()) || firstErr.Load() != nil {
					return
				}
				t0 := monotime()
				hit, err := ref(&tr.Records[i])
				lats[i] = since(t0)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if hit {
					hitCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return 0, 0, nil, *e
	}
	return hitCount.Load(), since(start), lats, nil
}

// postReference sends one trace record to a live server's /v1/reference.
// The record's logical timestamp is deliberately NOT sent: the server may
// have been up for a while (or served other traffic), so its clock is
// ahead of the trace's zero-based seconds, and mixing the two would pin
// every replayed reference to one instant and corrupt the λ estimates.
// Omitting the time lets the server stamp arrival on its own clock.
func postReference(client *http.Client, base string, rec *trace.Record) (bool, error) {
	body, err := json.Marshal(server.ReferenceRequest{
		QueryID:   rec.QueryID,
		Class:     rec.Class,
		Size:      rec.Size,
		Cost:      rec.Cost,
		Relations: rec.Relations,
		Plan:      rec.Plan,
	})
	if err != nil {
		return false, err
	}
	resp, err := client.Post(base+"/v1/reference", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("server returned %s: %s", resp.Status, msg)
	}
	var out server.ReferenceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, err
	}
	return out.Hit, nil
}

// fetchServerRatios reads the live server's aggregated metrics, reusing
// the replay client so the call shares its timeout.
func fetchServerRatios(client *http.Client, base string) (csr, hr float64, err error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("server returned %s: %s", resp.Status, msg)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	return st.CostSavingsRatio, st.HitRatio, nil
}
