package watchman

// This file exposes the simulation and experiment layers through the public
// API so that examples, tools and downstream users can replay traces and
// regenerate the paper's tables without reaching into internal packages.

import (
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Trace is a workload trace: a timestamped sequence of query submissions
// with sizes and execution costs.
type Trace = trace.Trace

// TraceStats summarizes a trace, including the exact infinite-cache CSR and
// HR bounds.
type TraceStats = trace.Stats

// ComputeTraceStats scans a trace and returns its summary.
func ComputeTraceStats(t *Trace) TraceStats { return trace.ComputeStats(t) }

// WorkloadConfig parameterizes benchmark trace generation.
type WorkloadConfig = workload.Config

// TPCDTrace generates the paper's TPC-D benchmark trace. Scale 0 selects
// the paper's 30 MB database (scale factor 0.03 of TPC-D's 1 GB).
func TPCDTrace(scale float64, cfg WorkloadConfig) (*Trace, error) {
	_, tr, err := workload.StandardTPCD(scale, cfg)
	return tr, err
}

// MulticlassTrace generates the three-class TPC-D extension workload with
// bursty per-class activity (§6 of the paper).
func MulticlassTrace(scale float64, cfg WorkloadConfig) (*Trace, error) {
	_, tr, err := workload.GenerateMulticlass(scale, cfg)
	return tr, err
}

// SimResult is the outcome of replaying a trace against one configuration.
type SimResult = sim.Result

// Replay feeds a trace through a cache built from cfg and returns both the
// aggregate result and the cache for inspection.
func Replay(tr *Trace, cfg Config) (SimResult, *Cache, error) {
	return sim.Replay(tr, cfg)
}

// CacheBytesForFraction converts a cache-size percentage of the trace's
// database into bytes.
func CacheBytesForFraction(tr *Trace, pct float64) int64 {
	return sim.CacheBytesForFraction(tr, pct)
}

// BufferSimConfig parameterizes the WATCHMAN ↔ buffer-manager cooperation
// experiment (Figure 7 of the paper).
type BufferSimConfig = sim.BufferSimConfig

// BufferSimResult reports one cooperation run.
type BufferSimResult = sim.BufferSimResult

// RunWarehouseBufferSim runs the buffer-manager cooperation simulation over
// the §4.2 warehouse database (14 relations; scale 1 = the paper's 100 MB).
func RunWarehouseBufferSim(scale float64, cfg BufferSimConfig) (BufferSimResult, error) {
	if scale <= 0 {
		scale = 1
	}
	db := relation.Warehouse(scale, relation.DefaultPageSize)
	return sim.RunBufferSim(db, workload.WarehouseTemplates(db), cfg)
}
