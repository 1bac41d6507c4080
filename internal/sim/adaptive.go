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

// ReplayAdaptive replays the trace through a cache whose admission is
// gated by a shadow-tuned threshold. The tuner is the cache's event sink
// with its feed left inline, so every outcome reaches the shadows, and
// every round runs, inside the reference that completes it: the replay is
// fully deterministic. cfg.Policy is forced to LNCRA (the tunable rule
// generalizes LNC-A); tcfg.Capacity and tcfg.K default to the live
// cache's when zero.
func ReplayAdaptive(tr *trace.Trace, cfg core.Config, tcfg admission.Config) (AdaptiveResult, *admission.Tuner, error) {
	cfg.Policy = core.LNCRA
	if tcfg.Capacity == 0 {
		tcfg.Capacity = cfg.Capacity
	}
	if tcfg.K == 0 {
		tcfg.K = cfg.K
	}
	tuner, err := admission.New(tcfg)
	if err != nil {
		return AdaptiveResult{}, nil, err
	}
	cfg.Admitter = tuner.Admitter()
	// Rounds run inside the tuner's Emit, so a sink after it sees every
	// switch as a change of θ.
	switches, theta := 0, tuner.Threshold()
	cfg.Sink = core.MultiSink(cfg.Sink, tuner, core.EventSinkFunc(func(core.Event) {
		if th := tuner.Threshold(); th != theta {
			switches, theta = switches+1, th
		}
	}))
	res, _, err := Replay(tr, cfg)
	if err != nil {
		return AdaptiveResult{}, nil, err
	}
	res.Policy = "LNC-RA adaptive"
	out := AdaptiveResult{Result: res, FinalThreshold: tuner.Threshold(), Switches: switches}
	if rounds := tuner.Rounds(); len(rounds) > 0 {
		out.Rounds = int(rounds[0].Seq)
	}
	return out, tuner, nil
}
