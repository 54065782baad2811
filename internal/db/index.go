package db

import (
	"slices"
	"sort"
	"strings"

	"templar/internal/schema"
	"templar/internal/stem"
)

// valueIndex is the database's one value index: what the full-text and
// numeric probes of Algorithm 2 (FindTextAttrs, FindNumericAttrs) answer
// from. It is built once from the populated tables and never changes
// afterwards, so any number of readers may share it.
type valueIndex struct {
	// text holds one inverted index per text attribute, ordered by sorted
	// relation name, then attribute declaration order.
	text []textColumn
	// num holds the sorted distinct values of every non-key numeric
	// attribute, in the same order.
	num []numColumn
}

// textColumn is the inverted full-text index of one text attribute: its
// sorted vocabulary of stemmed tokens and, per token, the sorted distinct
// values containing it (DISTINCT(?attr) semantics from §V-A). A prefix
// query is a binary search for the first token at or after the prefix.
type textColumn struct {
	rel, attr         string
	relStem, attrStem string
	tokens            []string
	postings          [][]string
}

// numColumn holds the sorted distinct values of one numeric attribute, so
// "does any row satisfy attr op n" is answered from the extremes and a
// binary search.
type numColumn struct {
	rel, attr string
	values    []float64
}

// buildIndex indexes every text attribute and every non-key numeric
// attribute and marks every table indexed, so later inserts fail instead of
// leaving the index stale. Each distinct value is tokenized once and each
// distinct token stemmed once.
func (d *Database) buildIndex() *valueIndex {
	keyCols := d.keyColumns()
	stems := make(map[string]string)
	ix := &valueIndex{}
	for _, rn := range d.relationNames() {
		t := d.tables[rn]
		t.indexed = true
		for ci, a := range t.rel.Attributes {
			switch {
			case a.Type == schema.Text:
				ix.text = append(ix.text, t.textColumn(ci, stems))
			case !keyCols[rn+"."+a.Name]:
				ix.num = append(ix.num, t.numColumn(ci))
			}
		}
	}
	return ix
}

// textColumn builds the inverted index of text column ci. stems memoizes
// stem.Stem across the whole build.
func (t *Table) textColumn(ci int, stems map[string]string) textColumn {
	a := t.rel.Attributes[ci]
	byStem := make(map[string][]string)
	// Distinct values arrive sorted, so every posting list is built sorted.
	for _, v := range t.DistinctValues(a.Name) {
		for _, tok := range Tokenize(v) {
			s, ok := stems[tok]
			if !ok {
				s = stem.Stem(tok)
				stems[tok] = s
			}
			if p := byStem[s]; len(p) == 0 || p[len(p)-1] != v {
				byStem[s] = append(p, v)
			}
		}
	}
	c := textColumn{
		rel: t.rel.Name, attr: a.Name,
		relStem: stem.Stem(t.rel.Name), attrStem: stem.Stem(a.Name),
		tokens: make([]string, 0, len(byStem)),
	}
	for s := range byStem {
		c.tokens = append(c.tokens, s)
	}
	sort.Strings(c.tokens)
	c.postings = make([][]string, len(c.tokens))
	for i, s := range c.tokens {
		c.postings[i] = byStem[s]
	}
	return c
}

// numColumn collects the sorted distinct values of numeric column ci.
func (t *Table) numColumn(ci int) numColumn {
	vals := make([]float64, 0, len(t.rows))
	for _, row := range t.rows {
		vals = append(vals, row[ci].N)
	}
	sort.Float64s(vals)
	return numColumn{rel: t.rel.Name, attr: t.rel.Attributes[ci].Name, values: slices.Clone(slices.Compact(vals))}
}

// matchAll intersects, across query stems, the union of the postings of
// the tokens having the stem as a prefix. The result is sorted and shares
// no memory with the index.
func (c *textColumn) matchAll(queryStems []string) []string {
	var out []string
	for i, qs := range queryStems {
		var hits []string
		for j := sort.SearchStrings(c.tokens, qs); j < len(c.tokens) && strings.HasPrefix(c.tokens[j], qs); j++ {
			hits = append(hits, c.postings[j]...)
		}
		slices.Sort(hits)
		hits = slices.Compact(hits)
		if i > 0 {
			hits = intersectSorted(out, hits)
		}
		if len(hits) == 0 {
			return nil
		}
		out = hits
	}
	return out
}

// intersectSorted returns the values present in both sorted, duplicate-free
// slices, written over a.
func intersectSorted(a, b []string) []string {
	out := a[:0]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// anyMatch reports whether any stored value v satisfies "v op n", with the
// semantics of Value.Compare. Unknown operators (including LIKE against
// numbers) match nothing, like the row scan's per-row Compare errors.
func (c *numColumn) anyMatch(op string, n float64) bool {
	vals := c.values
	if len(vals) == 0 {
		return false
	}
	switch op {
	case "=":
		i := sort.SearchFloat64s(vals, n)
		return i < len(vals) && vals[i] == n
	case "!=":
		return len(vals) > 1 || vals[0] != n
	case "<":
		return vals[0] < n
	case "<=":
		return vals[0] <= n
	case ">":
		return vals[len(vals)-1] > n
	case ">=":
		return vals[len(vals)-1] >= n
	default:
		return false
	}
}
