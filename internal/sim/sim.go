// Package sim replays workload traces against cache configurations and
// produces the paper's metrics. It also hosts the WATCHMAN/buffer-manager
// cooperation simulator behind the Figure 7 experiment.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
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

// Fragmentation returns the average unused-space fraction of the replay.
func (r Result) Fragmentation() float64 { return r.Stats.AvgFragmentation() }

// Replay feeds every record of the trace through a cache built from cfg and
// returns the result. The returned cache allows further inspection.
func Replay(tr *trace.Trace, cfg core.Config) (Result, *core.Cache, error) {
	c, err := core.New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	for i := range tr.Records {
		rec := &tr.Records[i]
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
		c.Reference(req)
	}
	return Result{
		Policy:     cfg.Policy.String(),
		K:          cfg.K,
		CacheBytes: cfg.Capacity,
		Stats:      c.Stats(),
	}, c, nil
}

// ReplayWithRegistry replays the trace with a telemetry registry attached
// as the cache's event sink (composed with any sink already configured),
// so the caller can read per-class and per-relation cost-savings
// breakdowns off the registry afterwards. `watchman compare` uses it to
// print per-class CSR columns for multiclass traces.
func ReplayWithRegistry(tr *trace.Trace, cfg core.Config, reg *telemetry.Registry) (Result, *core.Cache, error) {
	cfg.Sink = core.MultiSink(cfg.Sink, reg)
	return Replay(tr, cfg)
}

// Setup is a shorthand for the cache configurations the experiments sweep.
type Setup struct {
	Policy core.PolicyKind
	K      int
	// DisableRetained turns retained reference information off (ablation).
	DisableRetained bool
	// StrictTiers enables the literal Figure-1 tier loop (ablation).
	StrictTiers bool
}

// Label renders a display name such as "LNC-RA(K=4)".
func (s Setup) Label() string {
	return fmt.Sprintf("%s(K=%d)", s.Policy, s.K)
}

// ReplaySetup replays the trace with the setup at the given capacity.
func ReplaySetup(tr *trace.Trace, s Setup, capacity int64) (Result, error) {
	res, _, err := Replay(tr, core.Config{
		Capacity:            capacity,
		K:                   s.K,
		Policy:              s.Policy,
		DisableRetainedInfo: s.DisableRetained,
		StrictTiers:         s.StrictTiers,
	})
	return res, err
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

// SweepPoint is one (cache size, setup) replay within a sweep.
type SweepPoint struct {
	Pct    float64
	Setup  Setup
	Result Result
}

// Sweep replays the trace for every (cache percentage × setup) pair.
func Sweep(tr *trace.Trace, pcts []float64, setups []Setup) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(pcts)*len(setups))
	for _, pct := range pcts {
		capacity := CacheBytesForFraction(tr, pct)
		for _, s := range setups {
			res, err := ReplaySetup(tr, s, capacity)
			if err != nil {
				return nil, fmt.Errorf("sim: sweep %s at %.2f%%: %w", s.Label(), pct, err)
			}
			out = append(out, SweepPoint{Pct: pct, Setup: s, Result: res})
		}
	}
	return out, nil
}

// InfiniteCache replays the trace with unlimited capacity, yielding the
// paper's Figure 2 bounds. Any policy gives the same hits with infinite
// space; LNC-RA is used to match the paper's setup.
func InfiniteCache(tr *trace.Trace, k int) (Result, error) {
	res, _, err := Replay(tr, core.Config{
		Capacity: core.Unlimited,
		K:        k,
		Policy:   core.LNCRA,
	})
	return res, err
}
