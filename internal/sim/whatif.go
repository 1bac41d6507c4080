package sim

import (
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/whatif"
)

// ReplayWhatIf replays a trace through one real cache with a ghost-cache
// matrix attached to its event stream, exactly as `serve -whatif` attaches
// one to the live sharded cache, and returns the real replay's Result
// alongside the matrix's final report. The matrix's feed stays inline, so
// every sampled reference reaches the ghosts inside the reference that
// produced it and nothing is shed — which is what lets tests validate the
// sampled estimates against brute-force full replays.
//
// wcfg.Base is overwritten with cfg: the ghosts counterfactual the exact
// configuration being replayed.
func ReplayWhatIf(tr *trace.Trace, cfg core.Config, wcfg whatif.Config) (Result, whatif.Report, error) {
	wcfg.Base = cfg
	m, err := whatif.New(wcfg)
	if err != nil {
		return Result{}, whatif.Report{}, err
	}
	cfg.Sink = core.MultiSink(cfg.Sink, m)
	res, _, err := Replay(tr, cfg)
	if err != nil {
		return Result{}, whatif.Report{}, err
	}
	return res, m.Report(0), nil
}
