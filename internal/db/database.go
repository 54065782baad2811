package db

import (
	"fmt"
	"sort"
	"sync"

	"templar/internal/schema"
	"templar/internal/stem"
)

// Database binds a schema graph to table storage and to the one value
// index the keyword probes of Algorithm 2 answer from.
//
// A Database is filled first and read afterwards. The value index is built
// once, on the first FindTextAttrs or FindNumericAttrs call or on
// BuildIndex, and from then on every Insert fails with ErrIndexed, so a
// probe never answers from stale rows. Reads — probes, PredicateNonEmpty,
// Execute — are safe for concurrent use; Insert is not.
type Database struct {
	graph  *schema.Graph
	tables map[string]*Table

	// keyCols memoizes keyColumns: the set depends only on the schema
	// graph, which is fixed at construction, and IsKeyColumn sits on the
	// keyword-mapping hot path where rebuilding the map per call dominated
	// the allocation profile.
	keyOnce sync.Once
	keyCols map[string]bool

	indexOnce sync.Once
	values    *valueIndex
}

// New creates an empty database over a schema graph, with one table per
// relation.
func New(g *schema.Graph) *Database {
	d := &Database{graph: g, tables: make(map[string]*Table)}
	for _, rn := range g.Relations() {
		rel, _ := g.Relation(rn)
		d.tables[rn] = newTable(*rel)
	}
	return d
}

// Schema returns the schema graph.
func (d *Database) Schema() *schema.Graph { return d.graph }

// Table returns the table for a relation, or nil.
func (d *Database) Table(rel string) *Table { return d.tables[rel] }

// Insert adds a row to a relation. It fails with ErrIndexed once the value
// index is built.
func (d *Database) Insert(rel string, row []Value) error {
	t, ok := d.tables[rel]
	if !ok {
		return fmt.Errorf("db: unknown relation %q", rel)
	}
	return t.Insert(row)
}

// MustInsert is Insert that panics on error; for dataset generators whose
// rows are statically well-typed.
func (d *Database) MustInsert(rel string, row []Value) {
	if err := d.Insert(rel, row); err != nil {
		panic(err)
	}
}

// TextMatch is one full-text hit: a qualified text attribute and the
// distinct values matching all query tokens.
type TextMatch struct {
	Relation  string
	Attribute string
	Values    []string
}

// Qualified returns "relation.attribute".
func (m TextMatch) Qualified() string { return m.Relation + "." + m.Attribute }

// BuildIndex builds the value index now, if no probe has built it yet.
// It makes the database read-only: every later Insert fails. A serving
// engine calls it at construction, so no request pays for the build.
func (d *Database) BuildIndex() { d.index() }

// index returns the value index, building it on first use.
func (d *Database) index() *valueIndex {
	d.indexOnce.Do(func() { d.values = d.buildIndex() })
	return d.values
}

// FindTextAttrs implements findTextAttrs from Algorithm 2: it stems every
// token of the keyword and runs a boolean-mode prefix search over every
// text attribute, returning, in sorted relation then declaration order, the
// attributes with at least one distinct value matching all tokens. Tokens
// that exactly match the stemmed attribute or relation name are dropped
// from that attribute's search (the "movie Saving Private Ryan" rule of
// §V-A). It answers from the value index.
func (d *Database) FindTextAttrs(keyword string) []TextMatch {
	rawTokens := Tokenize(keyword)
	if len(rawTokens) == 0 {
		return nil
	}
	stems := make([]string, len(rawTokens))
	for i, tok := range rawTokens {
		stems[i] = stem.Stem(tok)
	}
	ix := d.index()
	query := make([]string, 0, len(stems))
	var out []TextMatch
	for i := range ix.text {
		c := &ix.text[i]
		// Drop tokens that exactly match the stemmed attribute or
		// relation name so they do not over-constrain the search.
		query = query[:0]
		for _, s := range stems {
			if s != c.relStem && s != c.attrStem {
				query = append(query, s)
			}
		}
		if len(query) == 0 {
			continue
		}
		if vals := c.matchAll(query); len(vals) > 0 {
			out = append(out, TextMatch{Relation: c.rel, Attribute: c.attr, Values: vals})
		}
	}
	return out
}

// NumericMatch is a numeric attribute satisfying a probe predicate.
type NumericMatch struct {
	Relation  string
	Attribute string
}

// Qualified returns "relation.attribute".
func (m NumericMatch) Qualified() string { return m.Relation + "." + m.Attribute }

// FindNumericAttrs implements findNumericAttrs from Algorithm 2: all numeric
// attributes containing at least one value satisfying "attr op n" ("" means
// "="), in sorted relation then declaration order. Primary and foreign key
// columns are excluded — surrogate ids are never the target of a user's
// numeric predicate, and the paper's candidate set is built from value
// attributes. It answers from the value index.
func (d *Database) FindNumericAttrs(n float64, op string) []NumericMatch {
	if op == "" {
		op = "="
	}
	ix := d.index()
	var out []NumericMatch
	for i := range ix.num {
		if c := &ix.num[i]; c.anyMatch(op, n) {
			out = append(out, NumericMatch{Relation: c.rel, Attribute: c.attr})
		}
	}
	return out
}

// PredicateNonEmpty implements exec(c) ≠ ∅: whether "rel.attr op value"
// selects at least one row. It scans the rows; with Table.MatchAll it is
// the reference the value index is tested against.
func (d *Database) PredicateNonEmpty(rel, attr, op string, value Value) bool {
	t, ok := d.tables[rel]
	if !ok {
		return false
	}
	match, err := t.AnyMatch(attr, op, value)
	return err == nil && match
}

// IsKeyColumn reports whether rel.attr participates in a primary key or an
// FK-PK edge. Surrogate key columns are never sensible targets for keyword
// mapping (users do not ask for ids), so the Keyword Mapper excludes them
// from SELECT-context candidates, mirroring how FindNumericAttrs excludes
// them from predicate candidates.
func (d *Database) IsKeyColumn(rel, attr string) bool {
	return d.keyColumns()[rel+"."+attr]
}

// keyColumns returns the set of "rel.attr" participating in primary keys or
// FK-PK edges. Computed once; callers must not mutate the returned map.
func (d *Database) keyColumns() map[string]bool {
	d.keyOnce.Do(func() {
		keys := make(map[string]bool)
		for _, rn := range d.graph.Relations() {
			rel, _ := d.graph.Relation(rn)
			for _, a := range rel.Attributes {
				if a.PrimaryKey {
					keys[rn+"."+a.Name] = true
				}
			}
		}
		for _, fk := range d.graph.ForeignKeys() {
			keys[fk.FromRel+"."+fk.FromAttr] = true
			keys[fk.ToRel+"."+fk.ToAttr] = true
		}
		d.keyCols = keys
	})
	return d.keyCols
}

func (d *Database) relationNames() []string {
	out := d.graph.Relations()
	sort.Strings(out)
	return out
}
