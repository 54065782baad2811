package db

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"templar/internal/schema"
	"templar/internal/stem"
)

// Table holds the rows of one relation. Once the database's value index is
// built (Database.BuildIndex), the table is read-only: Insert fails, so the
// index never answers from stale rows.
type Table struct {
	rel     schema.Relation
	colIdx  map[string]int
	rows    [][]Value
	indexed bool
}

// ErrIndexed is returned by Insert once the database's value index has
// been built.
var ErrIndexed = errors.New("db: the value index is built; the database is read-only")

// newTable builds an empty table for a relation definition.
func newTable(rel schema.Relation) *Table {
	t := &Table{rel: rel, colIdx: make(map[string]int, len(rel.Attributes))}
	for i, a := range rel.Attributes {
		t.colIdx[a.Name] = i
	}
	return t
}

// Name returns the relation name.
func (t *Table) Name() string { return t.rel.Name }

// Len returns the row count.
func (t *Table) Len() int { return len(t.rows) }

// Insert appends a row. Values must match the declared column count and
// types, and the database's value index must not be built yet (ErrIndexed).
func (t *Table) Insert(row []Value) error {
	if t.indexed {
		return fmt.Errorf("%w: insert into %s", ErrIndexed, t.rel.Name)
	}
	if len(row) != len(t.rel.Attributes) {
		return fmt.Errorf("db: %s: row has %d values, want %d", t.rel.Name, len(row), len(t.rel.Attributes))
	}
	for i, v := range row {
		want := t.rel.Attributes[i].Type == schema.Number
		if v.IsNum != want {
			return fmt.Errorf("db: %s.%s: value %v has wrong type", t.rel.Name, t.rel.Attributes[i].Name, v)
		}
	}
	t.rows = append(t.rows, append([]Value(nil), row...))
	return nil
}

// Tokenize lowercases and splits a string on non-alphanumeric boundaries,
// so snake_case identifiers split too. The value index and the embedding
// similarity model both tokenize with it.
func Tokenize(s string) []string {
	var out []string
	var cur []byte
	flush := func() {
		if len(cur) > 0 {
			out = append(out, string(cur))
			cur = cur[:0]
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			cur = append(cur, c)
		case c >= 'A' && c <= 'Z':
			cur = append(cur, c+'a'-'A')
		default:
			flush()
		}
	}
	flush()
	return out
}

// MatchAll returns the sorted distinct values of the given text column that
// contain, for every query stem, a token whose stem has the query stem as a
// prefix — boolean-mode "+tok*" AND semantics. It scans every row: it is
// the reference the value index behind FindTextAttrs is tested against.
func (t *Table) MatchAll(column string, queryStems []string) []string {
	if len(queryStems) == 0 {
		return nil
	}
	var out []string
	for _, v := range t.DistinctValues(column) {
		var stems []string
		for _, tok := range Tokenize(v) {
			stems = append(stems, stem.Stem(tok))
		}
		if prefixesAll(stems, queryStems) {
			out = append(out, v)
		}
	}
	return out
}

// prefixesAll reports whether every query stem is a prefix of some stem.
func prefixesAll(stems, queryStems []string) bool {
	for _, qs := range queryStems {
		if !slices.ContainsFunc(stems, func(s string) bool { return strings.HasPrefix(s, qs) }) {
			return false
		}
	}
	return true
}

// AnyMatch reports whether any row satisfies "column op value". It is the
// exec(c) ≠ ∅ probe from SCOREANDPRUNE.
func (t *Table) AnyMatch(column, op string, value Value) (bool, error) {
	ci, ok := t.colIdx[column]
	if !ok {
		return false, fmt.Errorf("db: %s: unknown column %q", t.rel.Name, column)
	}
	for _, row := range t.rows {
		ok, err := row[ci].Compare(op, value)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// DistinctValues returns the sorted distinct values of a text column, or
// nil for a numeric or unknown column.
func (t *Table) DistinctValues(column string) []string {
	ci, ok := t.colIdx[column]
	if !ok || t.rel.Attributes[ci].Type != schema.Text {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, row := range t.rows {
		if v := row[ci].S; !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Rows returns a copy of all rows (for the executor and tests).
func (t *Table) Rows() [][]Value {
	out := make([][]Value, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]Value(nil), r...)
	}
	return out
}

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(column string) int {
	if i, ok := t.colIdx[column]; ok {
		return i
	}
	return -1
}
