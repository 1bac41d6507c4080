package engine

import (
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/storage"
)

// Est is the analytic estimate for a plan: output cardinality, output size
// and execution cost in logical block reads.
type Est struct {
	// Rows is the expected output cardinality (fractional; expectations).
	Rows float64
	// Bytes is the expected retrieved-set size: Rows × output row width.
	Bytes float64
	// Cost is the expected number of logical block reads.
	Cost float64
	// Schema carries per-column distinct-value estimates for the output.
	Schema Schema
}

// yao returns the expected number of distinct pages touched when m rows are
// fetched at random from a relation occupying p pages (Cardenas/Yao
// approximation): p·(1 − (1 − 1/p)^m).
func yao(p, m float64) float64 {
	if p <= 1 {
		return math.Min(p, math.Max(m, 0))
	}
	if m <= 0 {
		return 0
	}
	// Compute via exp/log for numerical stability at large m.
	return p * -math.Expm1(m*math.Log1p(-1/p))
}

// cardenas returns the expected number of distinct values observed when n
// draws are made uniformly from a domain of d values: d·(1 − (1 − 1/d)^n).
func cardenas(d, n float64) float64 {
	if d <= 1 {
		return math.Min(d, math.Max(n, 0))
	}
	if n <= 0 {
		return 0
	}
	return d * -math.Expm1(n*math.Log1p(-1/d))
}

// Engine evaluates plans against a database.
type Engine struct {
	db    *relation.Database
	pager *storage.Pager
}

// New creates an engine over the database.
func New(db *relation.Database) *Engine {
	return &Engine{db: db}
}

// Estimate computes the analytic estimate for the plan.
func (e *Engine) Estimate(n Node) (Est, error) {
	switch t := n.(type) {
	case *Scan:
		return e.estimateScan(t)
	case *Join:
		return e.estimateJoin(t)
	case *Aggregate:
		return e.estimateAggregate(t)
	case *Project:
		return e.estimateProject(t)
	case *Sort:
		return e.estimateSort(t)
	default:
		return Est{}, fmt.Errorf("engine: estimate: unknown node type %T", n)
	}
}

// indexUsable reports whether the scan's index column has a predicate that
// can drive an index access, returning that predicate.
func indexUsable(s *Scan) (Pred, bool) {
	if s.Index == "" {
		return Pred{}, false
	}
	for _, p := range s.Preds {
		if p.Col == s.Index {
			return p, true
		}
	}
	return Pred{}, false
}

func (e *Engine) estimateScan(s *Scan) (Est, error) {
	rel, err := e.db.Relation(s.Rel)
	if err != nil {
		return Est{}, err
	}
	schema, err := s.Schema(e.db)
	if err != nil {
		return Est{}, err
	}
	rows := float64(rel.Rows)
	pages := float64(rel.Pages(e.db.PageSize))
	rpp := float64(rel.RowsPerPage(e.db.PageSize))

	// Combined selectivity of all predicates (attribute independence).
	sel := 1.0
	for i := range s.Preds {
		ci, err := rel.ColumnIndex(s.Preds[i].Col)
		if err != nil {
			return Est{}, err
		}
		sel *= s.Preds[i].selectivity(rel.Cardinality(ci))
	}
	outRows := rows * sel

	// Access-path cost.
	cost := pages
	if ip, ok := indexUsable(s); ok {
		ci := rel.MustColumnIndex(s.Index)
		matches := rows * ip.selectivity(rel.Cardinality(ci))
		if rel.Columns[ci].Kind == relation.KindSequential {
			// Clustered: matching rows are contiguous.
			cost = math.Min(pages, math.Max(1, math.Ceil(matches/rpp)))
		} else {
			// Unclustered: matching rows scatter across pages.
			cost = math.Min(pages, math.Max(1, math.Ceil(yao(pages, matches))))
		}
	}

	// Per-column distinct estimates, tightened by equality/range predicates.
	for i := range schema {
		card := schema[i].Card
		for _, p := range s.Preds {
			if p.Col != schema[i].Name {
				continue
			}
			if p.Op == OpEQ {
				card = 1
			} else {
				width := float64(p.Hi - p.Lo + 1)
				card = math.Min(card, math.Max(width, 1))
			}
		}
		schema[i].Card = math.Min(card, math.Max(outRows, 1))
	}
	return Est{
		Rows:   outRows,
		Bytes:  outRows * float64(schema.RowWidth()),
		Cost:   cost,
		Schema: schema,
	}, nil
}

func (e *Engine) estimateJoin(j *Join) (Est, error) {
	left, err := e.Estimate(j.Left)
	if err != nil {
		return Est{}, err
	}
	right, err := e.Estimate(j.Right)
	if err != nil {
		return Est{}, err
	}
	li := left.Schema.Index(j.LeftCol)
	ri := right.Schema.Index(j.RightCol)
	if li < 0 || ri < 0 {
		return Est{}, fmt.Errorf("engine: join: column %q/%q not in inputs", j.LeftCol, j.RightCol)
	}
	denom := math.Max(left.Schema[li].Card, right.Schema[ri].Card)
	if denom < 1 {
		denom = 1
	}
	outRows := left.Rows * right.Rows / denom

	schema := make(Schema, 0, len(left.Schema)+len(right.Schema))
	schema = append(schema, left.Schema...)
	schema = append(schema, right.Schema...)
	for i := range schema {
		schema[i].Card = math.Min(schema[i].Card, math.Max(outRows, 1))
	}
	return Est{
		Rows:   outRows,
		Bytes:  outRows * float64(schema.RowWidth()),
		Cost:   left.Cost + right.Cost,
		Schema: schema,
	}, nil
}

// maxGroupDomain caps the modeled group-key domain so products of large
// cardinalities do not overflow the estimate; beyond the input size the cap
// is irrelevant because cardenas saturates at the number of input rows.
const maxGroupDomain = 1e15

func (e *Engine) estimateAggregate(a *Aggregate) (Est, error) {
	in, err := e.Estimate(a.Input)
	if err != nil {
		return Est{}, err
	}
	schema, err := a.Schema(e.db)
	if err != nil {
		return Est{}, err
	}
	groups := 1.0
	if len(a.GroupBy) > 0 {
		domain := 1.0
		for _, g := range a.GroupBy {
			gi := in.Schema.Index(g)
			if gi < 0 {
				return Est{}, fmt.Errorf("engine: aggregate: no group-by column %q", g)
			}
			domain = math.Min(domain*in.Schema[gi].Card, maxGroupDomain)
		}
		groups = cardenas(domain, in.Rows)
	}
	if groups > in.Rows && in.Rows > 0 {
		groups = in.Rows
	}
	for i := range schema {
		if schema[i].Card == 0 {
			schema[i].Card = math.Max(groups, 1) // aggregate outputs
		} else {
			schema[i].Card = math.Min(schema[i].Card, math.Max(groups, 1))
		}
	}
	return Est{
		Rows:   groups,
		Bytes:  groups * float64(schema.RowWidth()),
		Cost:   in.Cost,
		Schema: schema,
	}, nil
}

func (e *Engine) estimateProject(p *Project) (Est, error) {
	in, err := e.Estimate(p.Input)
	if err != nil {
		return Est{}, err
	}
	schema, err := p.Schema(e.db)
	if err != nil {
		return Est{}, err
	}
	// Rebind column card estimates from the input (Schema() resolves from
	// base relations; the input may have tightened them). Lookup goes by
	// the source column name, since the output may be renamed.
	for i := range schema {
		if j := in.Schema.Index(p.Cols[i]); j >= 0 {
			schema[i].Card = in.Schema[j].Card
		}
	}
	outRows := in.Rows
	if p.Dedup {
		domain := 1.0
		for i := range schema {
			domain = math.Min(domain*math.Max(schema[i].Card, 1), maxGroupDomain)
		}
		outRows = cardenas(domain, in.Rows)
	}
	for i := range schema {
		schema[i].Card = math.Min(schema[i].Card, math.Max(outRows, 1))
	}
	return Est{
		Rows:   outRows,
		Bytes:  outRows * float64(schema.RowWidth()),
		Cost:   in.Cost,
		Schema: schema,
	}, nil
}

func (e *Engine) estimateSort(s *Sort) (Est, error) {
	in, err := e.Estimate(s.Input)
	if err != nil {
		return Est{}, err
	}
	outRows := in.Rows
	if s.Limit > 0 {
		outRows = math.Min(outRows, float64(s.Limit))
	}
	schema := in.Schema
	for i := range schema {
		schema[i].Card = math.Min(schema[i].Card, math.Max(outRows, 1))
	}
	return Est{
		Rows:   outRows,
		Bytes:  outRows * float64(schema.RowWidth()),
		Cost:   in.Cost,
		Schema: schema,
	}, nil
}
