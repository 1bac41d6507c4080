package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Standard experiment scales (§4.1 of the paper): the TPC-D database is
// 30 MB (scale factor 0.03 of the suggested 1 GB) and the Set Query database
// 100 MB (scale 0.5 of the suggested 200 MB).
const (
	// TPCDScale is the default TPC-D scale factor.
	TPCDScale = 0.03
	// SetQueryScale is the default Set Query scale.
	SetQueryScale = 0.5
)

// StandardTPCD builds the paper's TPC-D database and trace at the given
// scale (0 selects TPCDScale).
func StandardTPCD(scale float64, cfg Config) (*relation.Database, *trace.Trace, error) {
	if scale <= 0 {
		scale = TPCDScale
	}
	db := relation.TPCD(scale, relation.DefaultPageSize)
	tr, err := Generate(db, TPCDTemplates(db), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: tpcd: %w", err)
	}
	return db, tr, nil
}

// StandardSetQuery builds the paper's Set Query database and trace at the
// given scale (0 selects SetQueryScale).
func StandardSetQuery(scale float64, cfg Config) (*relation.Database, *trace.Trace, error) {
	if scale <= 0 {
		scale = SetQueryScale
	}
	db := relation.SetQuery(scale, relation.DefaultPageSize)
	tr, err := Generate(db, SetQueryTemplates(db), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: setquery: %w", err)
	}
	return db, tr, nil
}

// The shape of the multiclass extension workload's noise class. §6 of the
// paper names multiclass streams — several query classes with distinct
// reference characteristics — as the environment where keeping more than
// the last reference time should pay off most, citing the LRU-K paper's
// argument: a single reference time cannot tell a genuinely hot set from
// one that was touched in a short correlated burst and will never return.
const (
	// multiclassNoise is the fraction of submissions drawn from the
	// correlated one-shot class: each such query fires a tight burst of
	// duplicate submissions and then never returns.
	multiclassNoise = 0.4
	// multiclassBurst is the number of correlated duplicate submissions
	// per one-shot query (including the first).
	multiclassBurst = 3
	// multiclassBurstGap is the mean spacing in seconds between the
	// duplicates of a burst.
	multiclassBurstGap = 2.0
)

// GenerateMulticlass builds a TPC-D-based three-class trace:
//
//	class 0 — steady "reporting" queries from small instance spaces,
//	          re-referenced throughout the trace (the signal);
//	class 1 — medium-space analysis queries, re-referenced a few times;
//	class 2 — ad-hoc one-shot queries from effectively unbounded spaces
//	          that fire a short burst of correlated duplicates and never
//	          return (the noise).
//
// Under K = 1 the class-2 bursts look like hot sets at eviction time; with
// K ≥ multiclassBurst the K-th most recent reference exposes them as
// one-shots.
func GenerateMulticlass(scale float64, cfg Config) (*relation.Database, *trace.Trace, error) {
	if scale <= 0 {
		scale = TPCDScale
	}
	cfg.normalize()

	db := relation.TPCD(scale, relation.DefaultPageSize)
	all := TPCDTemplates(db)
	byName := make(map[string]*Template, len(all))
	for _, t := range all {
		byName[t.Name] = t
	}
	classes := [][]*Template{
		pickTemplates(byName, "tpcd.q13", "tpcd.q4", "tpcd.q15", "tpcd.q5", "tpcd.q6"),
		pickTemplates(byName, "tpcd.q1", "tpcd.q3", "tpcd.q9", "tpcd.q12", "tpcd.q14"),
		pickTemplates(byName, "tpcd.q2", "tpcd.q16", "tpcd.q17"),
	}
	for ci, class := range classes {
		for _, t := range class {
			t.Class = ci
		}
	}

	eng := engine.New(db)
	rng := rand.New(rand.NewSource(cfg.Seed))
	type memo struct {
		size int64
		cost float64
		rels []string
		plan *engine.Descriptor
	}
	seen := make(map[string]memo)

	describe := func(t *Template, q Query) (memo, error) {
		m, ok := seen[q.ID]
		if !ok {
			est, err := eng.Estimate(q.Plan)
			if err != nil {
				return memo{}, fmt.Errorf("workload: multiclass: template %s: %w", t.Name, err)
			}
			m = memo{size: clampSize(est), cost: math.Max(1, math.Round(est.Cost)), rels: engine.BaseRelations(q.Plan)}
			if d, ok := engine.Describe(q.Plan); ok {
				m.plan = d
			}
			seen[q.ID] = m
		}
		return m, nil
	}

	tr := &trace.Trace{Name: "tpcd-multiclass", DatabaseBytes: db.Bytes()}
	tr.Records = make([]trace.Record, 0, cfg.Queries)
	now := 0.0
	emit := func(t *Template, q Query, class int, m memo) {
		tr.Records = append(tr.Records, trace.Record{
			Seq:       int64(len(tr.Records)),
			Time:      now,
			QueryID:   q.ID,
			Template:  t.Name,
			Class:     class,
			Size:      m.size,
			Cost:      m.cost,
			Relations: m.rels,
			Plan:      m.plan,
		})
	}

	for len(tr.Records) < cfg.Queries {
		now += rng.ExpFloat64() * meanInterarrival
		if rng.Float64() < multiclassNoise {
			// Correlated one-shot burst from the ad-hoc class.
			class := classes[2]
			t := class[rng.Intn(len(class))]
			q := t.Gen(rng)
			m, err := describe(t, q)
			if err != nil {
				return nil, nil, err
			}
			for b := 0; b < multiclassBurst && len(tr.Records) < cfg.Queries; b++ {
				if b > 0 {
					now += rng.ExpFloat64() * multiclassBurstGap
				}
				emit(t, q, 2, m)
			}
			continue
		}
		ci := 0
		if rng.Float64() < 0.4 {
			ci = 1
		}
		class := classes[ci]
		t := class[rng.Intn(len(class))]
		q := t.Gen(rng)
		m, err := describe(t, q)
		if err != nil {
			return nil, nil, err
		}
		emit(t, q, ci, m)
	}
	return db, tr, nil
}

// pickTemplates fetches templates by name, panicking on unknown names —
// a misspelled class roster is a programming error.
func pickTemplates(byName map[string]*Template, names ...string) []*Template {
	out := make([]*Template, len(names))
	for i, n := range names {
		t, ok := byName[n]
		if !ok {
			panic(fmt.Sprintf("workload: unknown template %q", n))
		}
		out[i] = t
	}
	return out
}
