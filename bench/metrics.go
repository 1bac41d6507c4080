package main

// Metric definitions and the small statistics the benchmark reports. The
// tables here are the single source for metric names, units and regression
// bounds; a test holds BENCHMARK.json to them.

import (
	"math"
	"sort"
)

// metricDef names one reported metric.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; zero on per-layer
	// metrics, which are not gated.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd lists what a client of the daemon sees, measured with tracing
// off. Failed operations are not a metric here: they are the `failed` and
// `attempted` counts of the result line, and any failure fails the run.
//
// The timing bounds sit at the contract's maximum. Between seeds on a quiet
// machine these metrics spread by 1–4%, but the 2-core VM the benchmark was
// defined on has spells of minutes in which everything costs 10–30% more
// CPU, and a bound has to hold across one (bench/README.md has the runs).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"refs_per_s", "1/s", "higher", 0.25},
	{"ref_p50_us", "us", "lower", 0.25},
	{"ref_p99_us", "us", "lower", 0.25},
	{"csr", "ratio", "higher", 0.03},
	{"cpu_us_per_ref", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer lists the traced run's metrics; layer names are the repo's
// packages. Metrics of a layer a workload does not cross read 0.
var perLayer = []metricDef{
	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "build.s", Unit: "s", Better: "lower"},
	{Name: "serve.boot_ms", Unit: "ms", Better: "lower"},

	{Name: "core.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "core.hit_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.miss_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.miss_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_ref", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_ref", Unit: "bytes", Better: "lower"},
	{Name: "core.hits", Unit: "count", Better: "higher"},
	{Name: "core.admissions", Unit: "count", Better: "lower"},
	{Name: "core.rejections", Unit: "count", Better: "lower"},
	{Name: "core.evictions", Unit: "count", Better: "lower"},
	{Name: "core.resident_sets", Unit: "count", Better: "higher"},
	{Name: "core.retained_sets", Unit: "count", Better: "lower"},
	{Name: "core.csr", Unit: "ratio", Better: "higher"},

	{Name: "shard.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "shard.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "shard.hit_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "shard.miss_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "shard.allocs_per_ref", Unit: "count", Better: "lower"},
	{Name: "shard.csr", Unit: "ratio", Better: "higher"},
	{Name: "shard.invalidate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.invalidate_dropped", Unit: "count", Better: "lower"},
	{Name: "shard.snapshot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.snapshot_max_lock_pause_us", Unit: "us", Better: "lower"},
	{Name: "shard.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "persist.bytes_per_set", Unit: "bytes", Better: "lower"},

	{Name: "telemetry.tax_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "admission.tax_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "flight.tax_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "whatif.tax_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "observers.all_tax_ns_per_ref", Unit: "ns", Better: "lower"},

	{Name: "server.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "server.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "server.allocs_per_ref", Unit: "count", Better: "lower"},
	{Name: "server.req_bytes_per_ref", Unit: "bytes", Better: "lower"},
	{Name: "server.resp_bytes_per_ref", Unit: "bytes", Better: "lower"},

	{Name: "http.ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "http.self_ns_per_ref", Unit: "ns", Better: "lower"},

	{Name: "serve.references", Unit: "count", Better: "higher"},
	{Name: "serve.hits", Unit: "count", Better: "higher"},
	{Name: "serve.admissions", Unit: "count", Better: "lower"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.rejections", Unit: "count", Better: "lower"},
	{Name: "serve.invalidations", Unit: "count", Better: "lower"},
	{Name: "serve.resident_sets", Unit: "count", Better: "higher"},
	{Name: "serve.used_bytes", Unit: "bytes", Better: "higher"},
	{Name: "serve.invalidate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_us_per_ref", Unit: "us", Better: "lower"},
	{Name: "loadgen.ref_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// percentile reads the p-quantile (nearest rank) off an ascending slice.
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1)+0.5)]
}

// median returns the middle value of xs (mean of the middle two for an
// even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the acceptance rule the benchmark
// is held to. It needs at least two values.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(median(s))
}
