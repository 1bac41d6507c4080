package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/relation"
	"repro/internal/storage"
)

// Result is a materialized retrieved set.
type Result struct {
	Schema Schema
	Rows   [][]int64
}

// Bytes returns the stored size of the retrieved set: rows × row width.
// The empty set still occupies one row width (the paper's cache entries are
// never zero-sized).
func (r *Result) Bytes() int64 {
	w := int64(r.Schema.RowWidth())
	if len(r.Rows) == 0 {
		return w
	}
	return int64(len(r.Rows)) * w
}

// Execute runs the plan to completion, streaming the page references of
// every scan into sink, and returns the materialized result. Pass a
// *storage.CountingSink to measure cost, or a *storage.PoolSink to drive a
// buffer pool.
func (e *Engine) Execute(n Node, sink storage.PageSink) (*Result, error) {
	switch t := n.(type) {
	case *Scan:
		return e.execScan(t, sink)
	case *Join:
		return e.execJoin(t, sink)
	case *Aggregate:
		return e.execAggregate(t, sink)
	case *Project:
		return e.execProject(t, sink)
	case *Sort:
		return e.execSort(t, sink)
	default:
		return nil, fmt.Errorf("engine: execute: unknown node type %T", n)
	}
}

// Pager returns the engine's pager, creating it on first use.
func (e *Engine) Pager() *storage.Pager {
	if e.pager == nil {
		e.pager = storage.NewPager(e.db)
	}
	return e.pager
}

func (e *Engine) execScan(s *Scan, sink storage.PageSink) (*Result, error) {
	rel, err := e.db.Relation(s.Rel)
	if err != nil {
		return nil, err
	}
	schema, err := s.Schema(e.db)
	if err != nil {
		return nil, err
	}
	pager := e.Pager()

	// Resolve projected and predicate columns to relation positions.
	outCols := make([]int, len(schema))
	for i := range schema {
		outCols[i] = rel.MustColumnIndex(schema[i].Name)
	}
	predCols := make([]int, len(s.Preds))
	for i := range s.Preds {
		ci, err := rel.ColumnIndex(s.Preds[i].Col)
		if err != nil {
			return nil, err
		}
		predCols[i] = ci
	}

	// Decide the iteration strategy.
	lo, hi := int64(0), rel.Rows-1
	ip, indexed := indexUsable(s)
	clustered := false
	if indexed {
		ci := rel.MustColumnIndex(s.Index)
		if rel.Columns[ci].Kind == relation.KindSequential {
			clustered = true
			// Only the matching key range needs to be visited.
			switch ip.Op {
			case OpEQ:
				lo, hi = ip.Lo, ip.Lo
			default:
				lo, hi = ip.Lo, ip.Hi
			}
			if lo < 0 {
				lo = 0
			}
			if hi > rel.Rows-1 {
				hi = rel.Rows - 1
			}
			if hi < lo { // empty range; emit nothing
				return &Result{Schema: schema}, nil
			}
		}
	}

	res := &Result{Schema: schema}
	var matchPages []int64 // pages holding index-predicate matches (unclustered)
	indexCol := -1
	if indexed && !clustered {
		indexCol = rel.MustColumnIndex(s.Index)
	}

rows:
	for row := lo; row <= hi; row++ {
		// For unclustered index scans, the access path selects rows by the
		// index predicate; residual predicates are applied after the fetch
		// but the page is still touched.
		if indexCol >= 0 {
			if !ip.matches(rel.Value(row, indexCol)) {
				continue
			}
			matchPages = append(matchPages, pager.PageOfRow(rel, row))
		}
		for i := range s.Preds {
			if indexCol >= 0 && predCols[i] == indexCol {
				continue // already tested via the access path
			}
			if !s.Preds[i].matches(rel.Value(row, predCols[i])) {
				continue rows
			}
		}
		out := make([]int64, len(outCols))
		for i, ci := range outCols {
			out[i] = rel.Value(row, ci)
		}
		res.Rows = append(res.Rows, out)
	}

	// Emit the access pattern.
	switch {
	case !indexed:
		pager.EmitAll(s.Rel, sink)
	case clustered:
		pager.EmitRange(s.Rel, pager.PageOfRow(rel, lo), pager.PageOfRow(rel, hi), sink)
	default:
		pager.EmitSet(s.Rel, matchPages, sink)
	}
	return res, nil
}

// rowKey encodes selected columns of a row into a map key.
func rowKey(row []int64, cols []int, buf []byte) ([]byte, string) {
	buf = buf[:0]
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(row[c]))
	}
	return buf, string(buf)
}

func (e *Engine) execJoin(j *Join, sink storage.PageSink) (*Result, error) {
	left, err := e.Execute(j.Left, sink)
	if err != nil {
		return nil, err
	}
	right, err := e.Execute(j.Right, sink)
	if err != nil {
		return nil, err
	}
	li := left.Schema.Index(j.LeftCol)
	ri := right.Schema.Index(j.RightCol)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("engine: join: column %q/%q not in inputs", j.LeftCol, j.RightCol)
	}
	schema, err := j.Schema(e.db)
	if err != nil {
		return nil, err
	}

	// Hash build on the right input, probe with the left, preserving left
	// order for determinism.
	build := make(map[int64][]int, len(right.Rows))
	for idx, row := range right.Rows {
		v := row[ri]
		build[v] = append(build[v], idx)
	}
	res := &Result{Schema: schema}
	for _, lrow := range left.Rows {
		for _, idx := range build[lrow[li]] {
			out := make([]int64, 0, len(schema))
			out = append(out, lrow...)
			out = append(out, right.Rows[idx]...)
			res.Rows = append(res.Rows, out)
		}
	}
	return res, nil
}

// aggState accumulates one group's aggregates.
type aggState struct {
	group []int64
	count int64
	sum   []int64
	min   []int64
	max   []int64
	seen  bool
}

func (e *Engine) execAggregate(a *Aggregate, sink storage.PageSink) (*Result, error) {
	in, err := e.Execute(a.Input, sink)
	if err != nil {
		return nil, err
	}
	schema, err := a.Schema(e.db)
	if err != nil {
		return nil, err
	}
	groupCols := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groupCols[i] = in.Schema.Index(g)
	}
	aggCols := make([]int, len(a.Aggs))
	for i, sp := range a.Aggs {
		if sp.Kind == AggCount {
			aggCols[i] = -1
		} else {
			aggCols[i] = in.Schema.Index(sp.Col)
		}
	}

	groups := make(map[string]*aggState)
	var order []string
	var keyBuf []byte
	for _, row := range in.Rows {
		var key string
		keyBuf, key = rowKey(row, groupCols, keyBuf)
		st := groups[key]
		if st == nil {
			st = &aggState{
				group: make([]int64, len(groupCols)),
				sum:   make([]int64, len(a.Aggs)),
				min:   make([]int64, len(a.Aggs)),
				max:   make([]int64, len(a.Aggs)),
			}
			for i, c := range groupCols {
				st.group[i] = row[c]
			}
			groups[key] = st
			order = append(order, key)
		}
		st.count++
		for i, c := range aggCols {
			if c < 0 {
				continue
			}
			v := row[c]
			st.sum[i] += v
			if !st.seen || v < st.min[i] {
				st.min[i] = v
			}
			if !st.seen || v > st.max[i] {
				st.max[i] = v
			}
		}
		st.seen = true
	}

	// Scalar aggregation over an empty input still yields one row of zeros,
	// matching COUNT(*) = 0 semantics.
	if len(a.GroupBy) == 0 && len(groups) == 0 {
		st := &aggState{
			sum: make([]int64, len(a.Aggs)),
			min: make([]int64, len(a.Aggs)),
			max: make([]int64, len(a.Aggs)),
		}
		groups[""] = st
		order = append(order, "")
	}

	res := &Result{Schema: schema}
	for _, key := range order {
		st := groups[key]
		out := make([]int64, 0, len(schema))
		out = append(out, st.group...)
		for i, sp := range a.Aggs {
			switch sp.Kind {
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
		res.Rows = append(res.Rows, out)
	}
	// Deterministic output: sort by group columns.
	if len(groupCols) > 0 {
		k := len(groupCols)
		sort.SliceStable(res.Rows, func(i, j int) bool {
			a, b := res.Rows[i], res.Rows[j]
			for c := 0; c < k; c++ {
				if a[c] != b[c] {
					return a[c] < b[c]
				}
			}
			return false
		})
	}
	return res, nil
}

func (e *Engine) execProject(p *Project, sink storage.PageSink) (*Result, error) {
	in, err := e.Execute(p.Input, sink)
	if err != nil {
		return nil, err
	}
	schema, err := p.Schema(e.db)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(p.Cols))
	for i, n := range p.Cols {
		cols[i] = in.Schema.Index(n)
	}
	res := &Result{Schema: schema}
	var seen map[string]bool
	var keyBuf []byte
	if p.Dedup {
		seen = make(map[string]bool, len(in.Rows))
	}
	for _, row := range in.Rows {
		if p.Dedup {
			var key string
			keyBuf, key = rowKey(row, cols, keyBuf)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out := make([]int64, len(cols))
		for i, c := range cols {
			out[i] = row[c]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func (e *Engine) execSort(s *Sort, sink storage.PageSink) (*Result, error) {
	in, err := e.Execute(s.Input, sink)
	if err != nil {
		return nil, err
	}
	by := make([]int, len(s.By))
	for i, b := range s.By {
		by[i] = in.Schema.Index(b)
	}
	sort.SliceStable(in.Rows, func(i, j int) bool {
		a, b := in.Rows[i], in.Rows[j]
		for _, c := range by {
			if a[c] != b[c] {
				if s.Desc {
					return a[c] > b[c]
				}
				return a[c] < b[c]
			}
		}
		return false
	})
	if s.Limit > 0 && int64(len(in.Rows)) > s.Limit {
		in.Rows = in.Rows[:s.Limit]
	}
	return in, nil
}
