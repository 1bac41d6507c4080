package sim

import (
	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/trace"
)

// AdaptiveResult is the outcome of an adaptive-admission replay: the usual
// replay result plus the tuner state it ended with.
type AdaptiveResult struct {
	Result
	// FinalThreshold is the θ published when the replay finished.
	FinalThreshold float64
	// Rounds is the number of tuning rounds completed.
	Rounds int
	// Switches is the number of rounds that changed the threshold.
	Switches int
}

// ReplayAdaptive feeds the trace through a cache whose admission is gated
// by a shadow-tuned threshold: every reference is recorded into the
// tuner's profile and a synchronous tuning round runs each time the window
// fills, so the replay is fully deterministic. cfg.Policy is forced to
// LNCRA (the tunable rule generalizes LNC-A); tcfg.Capacity and tcfg.K
// default to the live cache's when zero.
func ReplayAdaptive(tr *trace.Trace, cfg core.Config, tcfg admission.Config) (AdaptiveResult, *admission.Tuner, error) {
	cfg.Policy = core.LNCRA
	if tcfg.Capacity == 0 {
		tcfg.Capacity = cfg.Capacity
	}
	if tcfg.K == 0 {
		tcfg.K = cfg.K
	}
	if tcfg.Evictor == 0 {
		tcfg.Evictor = cfg.Evictor
	}
	tuner, err := admission.New(tcfg)
	if err != nil {
		return AdaptiveResult{}, nil, err
	}
	cfg.Admitter = tuner.Admitter()
	c, err := core.New(cfg)
	if err != nil {
		return AdaptiveResult{}, nil, err
	}
	profile := tuner.NewProfile()
	rounds, switches := 0, 0
	for i := range tr.Records {
		rec := &tr.Records[i]
		// The sharded front's sequence: canonicalize and hash once, then
		// hand the profile the canonical string the core call returns.
		var buf [256]byte
		key, sig := core.Canonical(buf[:0], rec.QueryID)
		_, _, id := c.ReferenceBytes(core.Request{
			QueryID:   rec.QueryID,
			Time:      rec.Time,
			Class:     rec.Class,
			Size:      rec.Size,
			Cost:      rec.Cost,
			Relations: rec.Relations,
		}, key, sig)
		if profile.Record(admission.Sample{
			ID: id, Sig: sig, Size: rec.Size, Cost: rec.Cost, Time: rec.Time,
			Relations: rec.Relations,
		}) {
			if round, ok := tuner.TuneOnce(); ok {
				rounds++
				if round.Switched {
					switches++
				}
			}
		}
	}
	return AdaptiveResult{
		Result: Result{
			Policy:     "LNC-RA adaptive",
			K:          cfg.K,
			CacheBytes: cfg.Capacity,
			Stats:      c.Stats(),
		},
		FinalThreshold: tuner.Threshold(),
		Rounds:         rounds,
		Switches:       switches,
	}, tuner, nil
}
