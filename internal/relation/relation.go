// Package relation models the synthetic relational databases the WATCHMAN
// experiments run against: a scaled-down TPC-D-like database and a Set-Query
// style database, matching §4.1 of the paper ("relations were populated with
// synthetic data according to the benchmark specifications", scaled down from
// the suggested sizes).
//
// Tuples are never stored. Every column value is a pure function of
// (relation seed, column index, row index), so any tuple can be regenerated
// on demand and the whole database costs a few hundred bytes of metadata.
// Uniform pseudo-random columns use a splitmix64 hash; key columns are
// sequential; foreign keys hash into the parent's key space. This gives the
// engine exact cardinalities to estimate against while the generated data
// matches those estimates in expectation.
package relation

import (
	"fmt"
	"sort"
)

// ColumnKind describes how a column's values are generated.
type ColumnKind int

const (
	// KindSequential columns hold the row index itself (primary keys).
	KindSequential ColumnKind = iota
	// KindUniform columns hold a hash of the row index reduced modulo the
	// column's cardinality, i.e. i.i.d. uniform values in [0, Cardinality).
	KindUniform
	// KindForeign columns hold a uniform value in [0, Cardinality) where
	// Cardinality is the parent relation's row count.
	KindForeign
)

// Column describes one attribute of a relation.
type Column struct {
	// Name is the attribute name, unique within its relation.
	Name string
	// Kind selects the value generator.
	Kind ColumnKind
	// Cardinality is the number of distinct values for uniform and foreign
	// columns. Sequential columns ignore it (cardinality = row count).
	Cardinality int64
	// Width is the stored width of the attribute in bytes. Row width (and
	// therefore relation and retrieved-set sizes) is the sum of the widths.
	Width int
	// Parent names the referenced relation for foreign-key columns. It is
	// informational; Cardinality carries the actual key-space size.
	Parent string
}

// Relation is the metadata for one synthetic table.
type Relation struct {
	// Name is the relation name, unique within its database.
	Name string
	// Rows is the cardinality of the relation.
	Rows int64
	// Columns lists the attributes in storage order.
	Columns []Column
	// Seed perturbs the value generators so equal schemas with different
	// seeds produce different data.
	Seed uint64

	byName map[string]int
}

// init builds the column-name index; it is idempotent.
func (r *Relation) init() {
	if r.byName != nil {
		return
	}
	r.byName = make(map[string]int, len(r.Columns))
	for i, c := range r.Columns {
		r.byName[c.Name] = i
	}
}

// ColumnIndex returns the position of the named column, or an error.
func (r *Relation) ColumnIndex(name string) (int, error) {
	r.init()
	i, ok := r.byName[name]
	if !ok {
		return 0, fmt.Errorf("relation %s: no column %q", r.Name, name)
	}
	return i, nil
}

// MustColumnIndex is ColumnIndex but panics on unknown columns. It is meant
// for statically known template code, where a miss is a programming error.
func (r *Relation) MustColumnIndex(name string) int {
	i, err := r.ColumnIndex(name)
	if err != nil {
		panic(err)
	}
	return i
}

// RowWidth returns the stored width of one tuple in bytes.
func (r *Relation) RowWidth() int {
	w := 0
	for _, c := range r.Columns {
		w += c.Width
	}
	return w
}

// Bytes returns the total stored size of the relation in bytes.
func (r *Relation) Bytes() int64 {
	return r.Rows * int64(r.RowWidth())
}

// Pages returns the number of pages the relation occupies at the given page
// size, assuming tuples do not span pages.
func (r *Relation) Pages(pageSize int) int64 {
	rpp := int64(pageSize / r.RowWidth())
	if rpp < 1 {
		rpp = 1
	}
	return (r.Rows + rpp - 1) / rpp
}

// RowsPerPage returns the tuples stored per page at the given page size.
func (r *Relation) RowsPerPage(pageSize int) int64 {
	rpp := int64(pageSize / r.RowWidth())
	if rpp < 1 {
		rpp = 1
	}
	return rpp
}

// splitmix64 is the SplitMix64 finalizer, a strong cheap mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Value returns the value of column col for row index row.
func (r *Relation) Value(row int64, col int) int64 {
	c := &r.Columns[col]
	switch c.Kind {
	case KindSequential:
		return row
	default:
		h := splitmix64(r.Seed ^ splitmix64(uint64(col)+1) ^ uint64(row))
		card := c.Cardinality
		if card <= 0 {
			card = 1
		}
		return int64(h % uint64(card))
	}
}

// Cardinality returns the number of distinct values of the column.
func (r *Relation) Cardinality(col int) int64 {
	c := &r.Columns[col]
	if c.Kind == KindSequential {
		return r.Rows
	}
	if c.Cardinality <= 0 {
		return 1
	}
	return c.Cardinality
}

// Database is a named set of relations plus storage parameters.
type Database struct {
	// Name labels the database ("tpcd" or "setquery").
	Name string
	// PageSize is the storage page size in bytes.
	PageSize int
	// Relations maps relation name to metadata.
	Relations map[string]*Relation
}

// Bytes returns the total data size of the database in bytes (excluding
// indices, matching the paper's reported database sizes).
func (d *Database) Bytes() int64 {
	var total int64
	for _, r := range d.Relations {
		total += r.Bytes()
	}
	return total
}

// Relation returns the named relation or an error.
func (d *Database) Relation(name string) (*Relation, error) {
	r, ok := d.Relations[name]
	if !ok {
		return nil, fmt.Errorf("database %s: no relation %q", d.Name, name)
	}
	return r, nil
}

// MustRelation is Relation but panics on unknown names.
func (d *Database) MustRelation(name string) *Relation {
	r, err := d.Relation(name)
	if err != nil {
		panic(err)
	}
	return r
}

// RelationNames returns the relation names in sorted order.
func (d *Database) RelationNames() []string {
	names := make([]string, 0, len(d.Relations))
	for n := range d.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
