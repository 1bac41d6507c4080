package engine

import "fmt"

// This file defines the plan descriptor — the serializable summary of a
// plan that the semantic derivation subsystem (internal/derive) matches
// and rewrites against. A descriptor covers the derivable plan shapes: a
// predicated, projected scan of one base relation, optionally topped by a
// group-by aggregate. Join plans are not describable; they fall back to
// exact-match caching only.
//
// Descriptors travel everywhere a query does: workload generators attach
// them to trace records (the v2 binary codec encodes them), the HTTP
// server accepts them on POST /v1/reference, and the cache stores one per
// admitted entry so the deriver can index cached content.

// Descriptor is the serializable plan summary of a derivable query:
//
//	SELECT Cols            FROM Rel WHERE Preds              (scan shape)
//	SELECT GroupBy, Aggs   FROM Rel WHERE Preds GROUP BY ... (aggregate shape)
//
// The shape is an aggregate exactly when len(Aggs) > 0; GroupBy without
// aggregates is a grouped projection and uses the aggregate shape too.
type Descriptor struct {
	// Rel is the scanned base relation.
	Rel string `json:"rel"`
	// Preds are the conjunctive scan predicates.
	Preds []Pred `json:"preds,omitempty"`
	// Cols are the projected output columns of the scan shape. The
	// derivation rules require them to be explicit: an empty Cols means
	// "all columns", whose expansion needs the schema, so such descriptors
	// are never used as rewrite ancestors.
	Cols []string `json:"cols,omitempty"`
	// GroupBy lists the grouping columns of the aggregate shape.
	GroupBy []string `json:"group_by,omitempty"`
	// Aggs lists the aggregate outputs; non-empty selects the aggregate
	// shape.
	Aggs []AggSpec `json:"aggs,omitempty"`
	// Index is the access-path column of the scan, used only for
	// remote-cost estimation; it never affects containment or results.
	Index string `json:"index,omitempty"`
}

// IsAggregate reports whether the descriptor has the aggregate shape.
func (d *Descriptor) IsAggregate() bool { return len(d.Aggs) > 0 || len(d.GroupBy) > 0 }

// Validate reports whether the descriptor is structurally sound. It is
// called at trust boundaries (trace decoding, the HTTP server).
func (d *Descriptor) Validate() error {
	if d.Rel == "" {
		return fmt.Errorf("engine: descriptor: empty relation")
	}
	for i := range d.Preds {
		if d.Preds[i].Col == "" {
			return fmt.Errorf("engine: descriptor: predicate %d has empty column", i)
		}
	}
	for _, g := range d.GroupBy {
		if g == "" {
			return fmt.Errorf("engine: descriptor: empty group-by column")
		}
	}
	for i := range d.Aggs {
		sp := &d.Aggs[i]
		if sp.As == "" {
			return fmt.Errorf("engine: descriptor: aggregate %d missing output name", i)
		}
		if sp.Kind < AggCount || sp.Kind > AggMax {
			return fmt.Errorf("engine: descriptor: aggregate %q has unknown kind %d", sp.As, sp.Kind)
		}
		if sp.Kind != AggCount && sp.Col == "" {
			return fmt.Errorf("engine: descriptor: aggregate %q over empty column", sp.As)
		}
	}
	if len(d.GroupBy) > 0 && len(d.Aggs) == 0 && len(d.Cols) > 0 {
		return fmt.Errorf("engine: descriptor: group-by with projected columns is ambiguous")
	}
	return nil
}

// Plan builds the executable plan tree of the descriptor. The aggregate
// shape scans exactly the columns its grouping and aggregation consume.
//
//lint:ignore unreferenced the remote-execution oracle: the engine, derive and shard tests check every derived answer against executing the descriptor
func (d *Descriptor) Plan() Node {
	if !d.IsAggregate() {
		return &Scan{Rel: d.Rel, Preds: d.Preds, Index: d.Index, Cols: d.Cols}
	}
	var inCols []string
	seen := make(map[string]bool)
	need := func(c string) {
		if c != "" && !seen[c] {
			seen[c] = true
			inCols = append(inCols, c)
		}
	}
	for _, g := range d.GroupBy {
		need(g)
	}
	for i := range d.Aggs {
		if d.Aggs[i].Kind != AggCount {
			need(d.Aggs[i].Col)
		}
	}
	return &Aggregate{
		Input:   &Scan{Rel: d.Rel, Preds: d.Preds, Index: d.Index, Cols: inCols},
		GroupBy: d.GroupBy,
		Aggs:    d.Aggs,
	}
}

// Describe summarizes a plan tree into a Descriptor when the tree has one
// of the derivable shapes: a Scan, a plain Project over a Scan (no
// renames, no dedup), or an Aggregate over a Scan. Executing the returned
// descriptor's Plan produces the same result as executing n. Any other
// shape returns (nil, false).
func Describe(n Node) (*Descriptor, bool) {
	switch t := n.(type) {
	case *Scan:
		return &Descriptor{Rel: t.Rel, Preds: t.Preds, Cols: t.Cols, Index: t.Index}, true
	case *Project:
		s, ok := t.Input.(*Scan)
		if !ok || t.As != nil || t.Dedup {
			return nil, false
		}
		// Projecting a scan's output is the same rows as scanning the
		// projected columns directly: predicates read the base relation,
		// not the projection.
		return &Descriptor{Rel: s.Rel, Preds: s.Preds, Cols: t.Cols, Index: s.Index}, true
	case *Aggregate:
		s, ok := t.Input.(*Scan)
		if !ok {
			return nil, false
		}
		return &Descriptor{Rel: s.Rel, Preds: s.Preds, GroupBy: t.GroupBy, Aggs: t.Aggs, Index: s.Index}, true
	default:
		return nil, false
	}
}
