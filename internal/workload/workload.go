// Package workload generates the benchmark query streams of the paper's
// evaluation (§4.1): a TPC-D-like trace of 17 query templates and a
// Set-Query-like trace with widened parameterization, both following the
// "drill-down analysis" distribution — templates are instantiated with
// parameters drawn uniformly from intervals of wildly different sizes, so
// queries at high summarization levels repeat frequently within a trace
// while queries at low summarization levels do not repeat at all.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Query is one instantiated query: its ID string (a compact SQL-ish
// rendering of the template with its parameter values, which the cache
// compresses into the lookup key) and its executable plan.
type Query struct {
	ID   string
	Plan engine.Node
}

// Template is a parameterized query template.
type Template struct {
	// Name identifies the template (e.g. "tpcd.q6").
	Name string
	// Class is the workload class (0 in single-class traces).
	Class int
	// Weight is the relative draw frequency; the standard traces use 1.
	Weight float64
	// Instances is the approximate size of the parameter space, reported
	// by trace statistics. It does not drive generation.
	Instances float64
	// Gen draws parameter values from r and builds the query.
	Gen func(r *rand.Rand) Query
}

// Config parameterizes trace generation.
type Config struct {
	// Queries is the trace length; the paper uses 17 000.
	Queries int
	// Seed drives all random choices; equal seeds give equal traces.
	Seed int64
}

// meanInterarrival is the mean of the exponential inter-arrival time
// distribution, in seconds.
const meanInterarrival = 1

// normalize fills defaults.
func (c *Config) normalize() {
	if c.Queries <= 0 {
		c.Queries = 17000
	}
}

// Generate draws a trace of cfg.Queries submissions from the template set
// against the database. Cost and retrieved-set size of each distinct query
// are obtained from the engine's analytic estimator and memoized, mirroring
// the paper's setup where each trace record carries (timestamp, query ID,
// size, cost) measured once.
func Generate(db *relation.Database, templates []*Template, cfg Config) (*trace.Trace, error) {
	cfg.normalize()
	if len(templates) == 0 {
		return nil, fmt.Errorf("workload: no templates")
	}
	eng := engine.New(db)
	rng := rand.New(rand.NewSource(cfg.Seed))

	totalWeight := 0.0
	for _, t := range templates {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += w
	}

	type memo struct {
		size int64
		cost float64
		rels []string
		plan *engine.Descriptor
	}
	seen := make(map[string]memo)

	tr := &trace.Trace{Name: db.Name, DatabaseBytes: db.Bytes()}
	tr.Records = make([]trace.Record, 0, cfg.Queries)
	now := 0.0
	for i := 0; i < cfg.Queries; i++ {
		now += rng.ExpFloat64() * meanInterarrival
		t := pickTemplate(templates, totalWeight, rng)
		q := t.Gen(rng)
		m, ok := seen[q.ID]
		if !ok {
			est, err := eng.Estimate(q.Plan)
			if err != nil {
				return nil, fmt.Errorf("workload: template %s: %w", t.Name, err)
			}
			m = memo{
				size: clampSize(est),
				cost: math.Max(1, math.Round(est.Cost)),
				rels: engine.BaseRelations(q.Plan),
			}
			// Derivable plan shapes travel as descriptors so the semantic
			// derivation subsystem can match cached sets against them.
			if d, ok := engine.Describe(q.Plan); ok {
				m.plan = d
			}
			seen[q.ID] = m
		}
		tr.Records = append(tr.Records, trace.Record{
			Seq:       int64(i),
			Time:      now,
			QueryID:   q.ID,
			Template:  t.Name,
			Class:     t.Class,
			Size:      m.size,
			Cost:      m.cost,
			Relations: m.rels,
			Plan:      m.plan,
		})
	}
	return tr, nil
}

// pickTemplate draws a template proportionally to its weight.
func pickTemplate(templates []*Template, totalWeight float64, rng *rand.Rand) *Template {
	x := rng.Float64() * totalWeight
	for _, t := range templates {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		x -= w
		if x < 0 {
			return t
		}
	}
	return templates[len(templates)-1]
}

// clampSize converts an estimated result size to a positive byte count; an
// empty result still occupies one output row, as in the engine's executor.
func clampSize(est engine.Est) int64 {
	w := int64(est.Schema.RowWidth())
	if w < 1 {
		w = 1
	}
	s := int64(math.Round(est.Bytes))
	if s < w {
		return w
	}
	return s
}

// uniformInt returns a uniform value in [0, n).
func uniformInt(r *rand.Rand, n int64) int64 {
	if n <= 1 {
		return 0
	}
	return r.Int63n(n)
}

// uniformRange returns a uniform subrange [lo, hi] of [0, card) of the
// given width.
func uniformRange(r *rand.Rand, card, width int64) (lo, hi int64) {
	if width >= card {
		return 0, card - 1
	}
	lo = uniformInt(r, card-width+1)
	return lo, lo + width - 1
}
