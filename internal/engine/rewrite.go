package engine

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// This file implements the semantic derivation rules: deciding whether a
// query described by one Descriptor can be answered exactly from the
// materialized result of another (Matcher.Subsumes), and performing that rewrite
// over the cached rows (Rewrite). Three rules are supported:
//
//	R1 re-filter:  scan ← scan       residual predicates + projection
//	R2 roll-up:    aggregate ← aggregate   coarser group-by, merged aggs
//	R3 aggregate:  aggregate ← scan        aggregate the cached detail rows
//
// All rules are exact: Execute(q.Plan()) and Rewrite(anc, q, Execute(
// anc.Plan())) produce identical results, row for row, in identical
// order. The equivalence fuzz corpus in internal/derive asserts this
// across the rule grid.

// rewriteMode names which rule applies to a (ancestor, query) pair.
type rewriteMode int

const (
	rewriteNone rewriteMode = iota
	rewriteFilter
	rewriteRollup
	rewriteAggregate
)

// interval is the closed value range a conjunctive predicate set admits on
// one column. lo > hi denotes the empty range.
type interval struct{ lo, hi int64 }

// contains reports whether every value in q also lies in a. The empty
// range is contained in everything.
func (a interval) contains(q interval) bool {
	if q.lo > q.hi {
		return true
	}
	return a.lo <= q.lo && q.hi <= a.hi
}

// equals reports interval equality, treating all empty ranges as equal.
func (a interval) equals(q interval) bool {
	if a.lo > a.hi && q.lo > q.hi {
		return true
	}
	return a == q
}

// predIntervals intersects a conjunctive predicate list into one closed
// interval per column.
func predIntervals(preds []Pred) map[string]interval {
	m := make(map[string]interval, len(preds))
	for i := range preds {
		p := &preds[i]
		iv := interval{p.Lo, p.Hi}
		if p.Op == OpEQ {
			iv = interval{p.Lo, p.Lo}
		}
		if cur, ok := m[p.Col]; ok {
			if iv.lo < cur.lo {
				iv.lo = cur.lo
			}
			if iv.hi > cur.hi {
				iv.hi = cur.hi
			}
		}
		m[p.Col] = iv
	}
	return m
}

// residualPred is one predicate the rewrite re-applies to ancestor rows:
// the column's position in the ancestor's output layout plus the admitted
// interval.
type residualPred struct {
	pos int
	iv  interval
}

// matches reports whether a row passes every residual predicate.
func residualMatch(row []int64, residual []residualPred) bool {
	for i := range residual {
		v := row[residual[i].pos]
		if v < residual[i].iv.lo || v > residual[i].iv.hi {
			return false
		}
	}
	return true
}

// aggSource maps one query aggregate onto the ancestor columns it is
// derived from.
type aggSource struct {
	kind AggKind
	// pos is the ancestor output position holding the partial aggregate
	// (sum for AggSum/AggAvg, min/max/count likewise). For rewriteAggregate
	// it is the detail column to aggregate (−1 for AggCount).
	pos int
	// countPos is the ancestor count position AggAvg additionally needs;
	// −1 otherwise.
	countPos int
}

// derivationPlan is the analyzed recipe for answering q from anc's result.
type derivationPlan struct {
	mode     rewriteMode
	residual []residualPred
	// outPos maps each query output column (scan shape) or group-by column
	// (aggregate shapes) to its position in the ancestor's output layout.
	outPos []int
	// aggs maps each query aggregate to its ancestor sources (aggregate
	// shapes only).
	aggs []aggSource
}

// ancLayout returns the ancestor's output column names in layout order:
// Cols for the scan shape, GroupBy followed by aggregate output names for
// the aggregate shape. ok is false when the layout is unknown (a scan
// shape with implicit "all columns").
func ancLayout(d *Descriptor) (names []string, groupLen int, ok bool) {
	if !d.IsAggregate() {
		if len(d.Cols) == 0 {
			return nil, 0, false
		}
		return d.Cols, len(d.Cols), true
	}
	names = make([]string, 0, len(d.GroupBy)+len(d.Aggs))
	names = append(names, d.GroupBy...)
	for i := range d.Aggs {
		names = append(names, d.Aggs[i].As)
	}
	return names, len(d.GroupBy), true
}

// queryAnalysis is the query-side half of the containment test,
// computable once per miss and reusable against every candidate.
type queryAnalysis struct {
	iv map[string]interval
	// cols are the constrained columns in sorted order, for deterministic
	// residual evaluation.
	cols []string
}

// analyzeQuery normalizes the query's predicates.
func analyzeQuery(q *Descriptor) *queryAnalysis {
	iv := predIntervals(q.Preds)
	cols := make([]string, 0, len(iv))
	for col := range iv {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return &queryAnalysis{iv: iv, cols: cols}
}

// analyze decides whether q is derivable from anc and, if so, returns the
// rewrite recipe.
func analyze(anc, q *Descriptor) (*derivationPlan, bool) {
	return analyzeWith(anc, q, analyzeQuery(q))
}

// analyzeWith is analyze with the query-side normalization precomputed
// (see Matcher).
func analyzeWith(anc, q *Descriptor, qa *queryAnalysis) (*derivationPlan, bool) {
	if anc.Rel != q.Rel {
		return nil, false
	}
	layout, groupLen, ok := ancLayout(anc)
	if !ok {
		return nil, false
	}
	pos := make(map[string]int, len(layout))
	for i, n := range layout {
		pos[n] = i
	}

	// Predicate containment: q must imply anc (anc's scan kept every row q
	// needs), and the difference must be re-checkable on anc's output. For
	// the aggregate ancestor only group-by columns carry raw values, so
	// residuals must land in the leading groupLen positions.
	ancIv := predIntervals(anc.Preds)
	qIv := qa.iv
	for col, a := range ancIv {
		qi, ok := qIv[col]
		if !ok || !a.contains(qi) {
			return nil, false
		}
	}
	plan := &derivationPlan{}
	for _, col := range qa.cols {
		qi := qIv[col]
		if a, ok := ancIv[col]; ok && a.equals(qi) {
			continue // already guaranteed by the ancestor's scan
		}
		p, ok := pos[col]
		if !ok || p >= groupLen {
			return nil, false
		}
		plan.residual = append(plan.residual, residualPred{pos: p, iv: qi})
	}

	switch {
	case !q.IsAggregate() && !anc.IsAggregate():
		// R1: project q's columns out of the ancestor's rows.
		if len(q.Cols) == 0 {
			return nil, false // implicit "all columns" needs the schema
		}
		plan.mode = rewriteFilter
		for _, c := range q.Cols {
			p, ok := pos[c]
			if !ok {
				return nil, false
			}
			plan.outPos = append(plan.outPos, p)
		}
		return plan, true

	case q.IsAggregate() && anc.IsAggregate():
		// R2: roll up a finer aggregate. Groups merge along the group-by
		// hierarchy, so q's grouping must be a subset of anc's, and every
		// query aggregate must be reconstructible from the partials.
		plan.mode = rewriteRollup
		for _, g := range q.GroupBy {
			p, ok := pos[g]
			if !ok || p >= groupLen {
				return nil, false
			}
			plan.outPos = append(plan.outPos, p)
		}
		countPos := -1
		sumPos := make(map[string]int)
		minPos := make(map[string]int)
		maxPos := make(map[string]int)
		for i := range anc.Aggs {
			sp := &anc.Aggs[i]
			p := groupLen + i
			switch sp.Kind {
			case AggCount:
				countPos = p
			case AggSum:
				sumPos[sp.Col] = p
			case AggMin:
				minPos[sp.Col] = p
			case AggMax:
				maxPos[sp.Col] = p
			case AggAvg:
				// An ancestor AVG column carries no mergeable partial;
				// AVG always derives from the SUM and COUNT columns.
			}
		}
		for i := range q.Aggs {
			sp := &q.Aggs[i]
			src := aggSource{kind: sp.Kind, pos: -1, countPos: -1}
			switch sp.Kind {
			case AggCount:
				src.pos = countPos
			case AggSum:
				if p, ok := sumPos[sp.Col]; ok {
					src.pos = p
				}
			case AggMin:
				if p, ok := minPos[sp.Col]; ok {
					src.pos = p
				}
			case AggMax:
				if p, ok := maxPos[sp.Col]; ok {
					src.pos = p
				}
			case AggAvg:
				// AVG finalizes as integer division of the totals, so it
				// rolls up exactly from SUM and COUNT partials.
				if p, ok := sumPos[sp.Col]; ok {
					src.pos = p
					src.countPos = countPos
				}
			}
			if src.pos < 0 || (sp.Kind == AggAvg && src.countPos < 0) {
				return nil, false
			}
			plan.aggs = append(plan.aggs, src)
		}
		return plan, true

	case q.IsAggregate() && !anc.IsAggregate():
		// R3: aggregate the cached detail rows directly.
		plan.mode = rewriteAggregate
		for _, g := range q.GroupBy {
			p, ok := pos[g]
			if !ok {
				return nil, false
			}
			plan.outPos = append(plan.outPos, p)
		}
		for i := range q.Aggs {
			sp := &q.Aggs[i]
			src := aggSource{kind: sp.Kind, pos: -1, countPos: -1}
			if sp.Kind == AggCount {
				plan.aggs = append(plan.aggs, src)
				continue
			}
			p, ok := pos[sp.Col]
			if !ok {
				return nil, false
			}
			src.pos = p
			plan.aggs = append(plan.aggs, src)
		}
		return plan, true

	default:
		// A scan cannot be recovered from an aggregate: the rows are gone.
		return nil, false
	}
}

// Matcher decides containment: whether the query described by q can be
// answered exactly from the materialized result of a cached descriptor
// anc — same relation, anc's predicates no stricter than q's, residual
// predicates re-checkable on anc's output, and q's outputs recoverable
// (projection, group-by roll-up or re-aggregation of detail rows). It
// analyzes the query once: one miss is tested against every cached
// descriptor of a relation, and re-normalizing the query's predicates per
// candidate would dominate the scan.
type Matcher struct {
	q  *Descriptor
	qa *queryAnalysis
}

// NewMatcher prepares q for repeated containment tests.
func NewMatcher(q *Descriptor) *Matcher {
	return &Matcher{q: q, qa: analyzeQuery(q)}
}

// Subsumes reports whether the matcher's query is derivable from anc.
func (m *Matcher) Subsumes(anc *Descriptor) bool {
	_, ok := analyzeWith(anc, m.q, m.qa)
	return ok
}

// Rewrite answers q from the materialized result of anc, which must be the
// execution result of anc.Plan(). The returned result is identical — rows,
// order and schema widths — to executing q.Plan() against the database the
// ancestor was computed from. It fails when q is not derivable from anc.
func Rewrite(anc, q *Descriptor, res *Result) (*Result, error) {
	plan, ok := analyze(anc, q)
	if !ok {
		return nil, fmt.Errorf("engine: rewrite: %s is not derivable from cached %s", q.Rel, anc.Rel)
	}
	switch plan.mode {
	case rewriteFilter:
		return rewriteProject(plan, q, res), nil
	case rewriteRollup:
		return rewriteMerge(plan, q, res), nil
	default:
		return rewriteAggregateRows(plan, q, res), nil
	}
}

// derivedSchema builds the output schema of the derived result: group/
// projection columns keep the ancestor's stored widths, aggregate outputs
// use the engine's fixed aggregate width.
func derivedSchema(plan *derivationPlan, q *Descriptor, res *Result) Schema {
	var out Schema
	for _, p := range plan.outPos {
		out = append(out, res.Schema[p])
	}
	if plan.mode == rewriteFilter {
		// Projection may rename nothing, but output names follow q.Cols.
		for i := range out {
			out[i].Name = q.Cols[i]
		}
		return out
	}
	for i := range q.Aggs {
		out = append(out, ColRef{Name: q.Aggs[i].As, Width: aggWidth})
	}
	return out
}

// rewriteProject implements R1: residual filter plus projection, in the
// ancestor's row order (which is the base relation's row order, matching
// a remote scan).
func rewriteProject(plan *derivationPlan, q *Descriptor, res *Result) *Result {
	out := &Result{Schema: derivedSchema(plan, q, res)}
	for _, row := range res.Rows {
		if !residualMatch(row, plan.residual) {
			continue
		}
		pr := make([]int64, len(plan.outPos))
		for i, p := range plan.outPos {
			pr[i] = row[p]
		}
		out.Rows = append(out.Rows, pr)
	}
	return out
}

// mergeState accumulates one output group during a roll-up or
// re-aggregation.
type mergeState struct {
	group []int64
	count int64
	sum   []int64
	min   []int64
	max   []int64
	seen  bool
}

// finalize renders the group exactly as execAggregate does: AVG is the
// integer division of the summed totals, empty scalar groups yield zeros.
func (st *mergeState) finalize(aggs []aggSource) []int64 {
	out := make([]int64, 0, len(st.group)+len(aggs))
	out = append(out, st.group...)
	for i := range aggs {
		switch aggs[i].kind {
		case AggCount:
			out = append(out, st.count)
		case AggSum:
			out = append(out, st.sum[i])
		case AggAvg:
			if st.count == 0 {
				out = append(out, 0)
			} else {
				out = append(out, st.sum[i]/st.count)
			}
		case AggMin:
			out = append(out, st.min[i])
		default:
			out = append(out, st.max[i])
		}
	}
	return out
}

// mergeRows drives the shared grouping loop of R2 and R3: rows from the
// ancestor are filtered, keyed by the query's group columns and folded via
// fold, then finalized and sorted by group values — the same deterministic
// order execAggregate produces.
func mergeRows(plan *derivationPlan, q *Descriptor, res *Result,
	fold func(st *mergeState, row []int64)) *Result {
	groups := make(map[string]*mergeState)
	var order []string
	var keyBuf []byte
	for _, row := range res.Rows {
		if !residualMatch(row, plan.residual) {
			continue
		}
		var key string
		keyBuf, key = rowKey(row, plan.outPos, keyBuf)
		st := groups[key]
		if st == nil {
			st = &mergeState{
				group: make([]int64, len(plan.outPos)),
				sum:   make([]int64, len(plan.aggs)),
				min:   make([]int64, len(plan.aggs)),
				max:   make([]int64, len(plan.aggs)),
			}
			for i, p := range plan.outPos {
				st.group[i] = row[p]
			}
			groups[key] = st
			order = append(order, key)
		}
		fold(st, row)
	}
	// Scalar aggregation over an empty input still yields one zero row,
	// matching execAggregate's COUNT(*) = 0 semantics.
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		st := &mergeState{
			sum: make([]int64, len(plan.aggs)),
			min: make([]int64, len(plan.aggs)),
			max: make([]int64, len(plan.aggs)),
		}
		groups[""] = st
		order = append(order, "")
	}
	out := &Result{Schema: derivedSchema(plan, q, res)}
	for _, key := range order {
		out.Rows = append(out.Rows, groups[key].finalize(plan.aggs))
	}
	if k := len(plan.outPos); k > 0 {
		sort.SliceStable(out.Rows, func(i, j int) bool {
			a, b := out.Rows[i], out.Rows[j]
			for c := 0; c < k; c++ {
				if a[c] != b[c] {
					return a[c] < b[c]
				}
			}
			return false
		})
	}
	return out
}

// rewriteMerge implements R2: fold the ancestor's partial aggregates into
// the coarser groups. Sums add, minima and maxima fold, the group count
// (feeding both COUNT outputs and AVG's divisor) accumulates exactly once
// per ancestor row, and AVG divides the merged totals at finalize.
func rewriteMerge(plan *derivationPlan, q *Descriptor, res *Result) *Result {
	countPos := mergeCountPos(plan)
	return mergeRows(plan, q, res, func(st *mergeState, row []int64) {
		for i := range plan.aggs {
			src := &plan.aggs[i]
			switch src.kind {
			case AggSum, AggAvg:
				st.sum[i] += row[src.pos]
			case AggMin:
				if v := row[src.pos]; !st.seen || v < st.min[i] {
					st.min[i] = v
				}
			case AggMax:
				if v := row[src.pos]; !st.seen || v > st.max[i] {
					st.max[i] = v
				}
			case AggCount:
				// The group count accumulates exactly once per ancestor
				// row via countPos below, never per output column.
			}
		}
		if countPos >= 0 {
			st.count += row[countPos]
		}
		st.seen = true
	})
}

// mergeCountPos returns the ancestor position carrying the group count
// needed by COUNT or AVG outputs, or −1 when no output needs it. All
// sources resolve to the ancestor's single COUNT column, so any match
// carries the same position.
func mergeCountPos(plan *derivationPlan) int {
	for i := range plan.aggs {
		if plan.aggs[i].kind == AggCount {
			return plan.aggs[i].pos
		}
		if plan.aggs[i].kind == AggAvg {
			return plan.aggs[i].countPos
		}
	}
	return -1
}

// rewriteAggregateRows implements R3: aggregate the cached detail rows
// with execAggregate's exact accumulation and finalization semantics.
func rewriteAggregateRows(plan *derivationPlan, q *Descriptor, res *Result) *Result {
	return mergeRows(plan, q, res, func(st *mergeState, row []int64) {
		st.count++
		for i := range plan.aggs {
			src := &plan.aggs[i]
			if src.pos < 0 {
				continue // COUNT consumes no column
			}
			v := row[src.pos]
			st.sum[i] += v
			if !st.seen || v < st.min[i] {
				st.min[i] = v
			}
			if !st.seen || v > st.max[i] {
				st.max[i] = v
			}
		}
		st.seen = true
	})
}

// DeriveCost returns the cost of answering a query by re-scanning a cached
// retrieved set of the given size, in the paper's logical block reads: the
// number of experiment-default pages the set occupies, at least one.
func DeriveCost(ancestorBytes int64) float64 {
	const pageSize = relation.DefaultPageSize
	return float64(max(1, (ancestorBytes+pageSize-1)/pageSize))
}
