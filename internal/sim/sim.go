// Package sim replays workload traces against cache configurations and
// produces the paper's metrics. It also hosts the WATCHMAN/buffer-manager
// cooperation simulator behind the Figure 7 experiment.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Result summarizes one replay.
type Result struct {
	// Policy names the replacement policy ("LNC-RA", "LRU", ...).
	Policy string
	// K is the reference-window size used.
	K int
	// CacheBytes is the cache capacity (core.Unlimited for infinite).
	CacheBytes int64
	// Stats are the cache's raw counters after the replay.
	Stats core.Stats
}

// CSR returns the cost savings ratio of the replay.
func (r Result) CSR() float64 { return r.Stats.CostSavingsRatio() }

// HR returns the hit ratio of the replay.
func (r Result) HR() float64 { return r.Stats.HitRatio() }

// Request converts a trace record into the cache request a replay
// submits.
func Request(rec *trace.Record) core.Request {
	req := core.Request{
		QueryID:   rec.QueryID,
		Time:      rec.Time,
		Class:     rec.Class,
		Size:      rec.Size,
		Cost:      rec.Cost,
		Relations: rec.Relations,
	}
	if rec.Plan != nil {
		// Guarded: a typed nil in the any-valued field would read as
		// "plan present" downstream.
		req.Plan = rec.Plan
	}
	return req
}

// replay feeds records through the cache in order.
func replay(c *core.Cache, recs []trace.Record) {
	for i := range recs {
		c.Reference(Request(&recs[i]))
	}
}

// Replay feeds every record of the trace through a cache built from cfg and
// returns the result. The returned cache allows further inspection. The
// caller attaches observers through cfg itself: a telemetry registry or
// regret tracker as cfg.Sink (core.MultiSink composes several), semantic
// derivation as cfg.Deriver.
func Replay(tr *trace.Trace, cfg core.Config) (Result, *core.Cache, error) {
	c, err := core.New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	replay(c, tr.Records)
	return Result{
		Policy:     cfg.Policy.String(),
		K:          cfg.K,
		CacheBytes: cfg.Capacity,
		Stats:      c.Stats(),
	}, c, nil
}

// CacheBytesForFraction converts a cache-size percentage of the database
// into bytes (at least one page worth).
func CacheBytesForFraction(tr *trace.Trace, pct float64) int64 {
	b := int64(float64(tr.DatabaseBytes) * pct / 100)
	if b < 4096 {
		b = 4096
	}
	return b
}

// SweepPoint is one (cache size, configuration) replay within a sweep.
type SweepPoint struct {
	Pct float64
	// Config is the replayed configuration, Capacity included.
	Config core.Config
	Result Result
}

// Sweep replays the trace for every (cache percentage × configuration)
// pair; each configuration's Capacity is replaced by the percentage's.
func Sweep(tr *trace.Trace, pcts []float64, cfgs []core.Config) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(pcts)*len(cfgs))
	for _, pct := range pcts {
		capacity := CacheBytesForFraction(tr, pct)
		for _, cfg := range cfgs {
			cfg.Capacity = capacity
			res, _, err := Replay(tr, cfg)
			if err != nil {
				return nil, fmt.Errorf("sim: sweep %s(K=%d) at %.2f%%: %w", cfg.Policy, cfg.K, pct, err)
			}
			out = append(out, SweepPoint{Pct: pct, Config: cfg, Result: res})
		}
	}
	return out, nil
}
