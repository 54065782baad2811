package keyword

import (
	"sort"
	"strings"
	"sync"

	"templar/internal/db"
	"templar/internal/schema"
	"templar/internal/stem"
)

// candidateIndex precomputes, at Mapper construction, everything
// keywordCands would otherwise re-derive from the database on every call:
// the FROM-context relation list, the SELECT-context non-key attribute
// list, a per-attribute inverted text index (sorted stemmed tokens with
// value postings, replacing the full token-map scan in Table.MatchAll), and
// sorted distinct numeric values per attribute (replacing the full row scan
// in Table.AnyMatch).
//
// The index is immutable after construction and therefore safe for
// concurrent use. Its answers — and their order: relations sorted for
// text/numeric probes, schema insertion order for FROM and SELECT
// candidates — equal the reference database scans (db.FindTextAttrs,
// db.FindNumericAttrs, the schema's relation and attribute lists); the
// keyword package tests compare the two over every bundled dataset.
type candidateIndex struct {
	// fromRels is the FROM-context candidate list (schema insertion order).
	fromRels []string
	// selectAttrs is the SELECT-context candidate list: every non-key
	// attribute in schema insertion order.
	selectAttrs []relAttr
	// textAttrs carries one inverted index per text attribute, ordered by
	// sorted relation name then attribute declaration order.
	textAttrs []textAttrIndex
	// numAttrs carries sorted distinct values per non-key numeric
	// attribute, in the same relation/attribute order.
	numAttrs []numAttrIndex
}

// relAttr is one (relation, attribute) pair.
type relAttr struct {
	rel, attr string
}

// textAttrIndex is the inverted full-text index of one text attribute:
// the sorted stemmed token vocabulary with, per token, the sorted distinct
// values containing it. Prefix queries become a binary search over tokens
// instead of a scan of the whole token map.
type textAttrIndex struct {
	rel, attr         string
	relStem, attrStem string
	tokens            []string
	postings          [][]string
}

// numAttrIndex holds the sorted distinct values of one numeric attribute,
// so "does any row satisfy attr op n" is answered from the extremes and a
// binary search rather than a row scan.
type numAttrIndex struct {
	rel, attr string
	values    []float64
}

// buildCandidateIndex constructs the index from a populated database.
func buildCandidateIndex(database *db.Database) *candidateIndex {
	g := database.Schema()
	ci := &candidateIndex{fromRels: g.Relations()}

	for _, q := range g.QualifiedAttributes() {
		rel, attr, err := splitQualified(q)
		if err != nil || database.IsKeyColumn(rel, attr) {
			continue
		}
		ci.selectAttrs = append(ci.selectAttrs, relAttr{rel, attr})
	}

	sortedRels := g.Relations()
	sort.Strings(sortedRels)
	for _, rn := range sortedRels {
		rel, ok := g.Relation(rn)
		if !ok {
			continue
		}
		t := database.Table(rn)
		relStem := stem.Stem(rn)
		var rows [][]db.Value
		for _, a := range rel.Attributes {
			switch {
			case a.Type == schema.Text:
				ci.textAttrs = append(ci.textAttrs, buildTextIndex(t, rn, a.Name, relStem))
			case a.Type == schema.Number && !database.IsKeyColumn(rn, a.Name):
				if rows == nil {
					rows = t.Rows()
				}
				ci.numAttrs = append(ci.numAttrs, buildNumIndex(t, rows, rn, a.Name))
			}
		}
	}
	return ci
}

// buildTextIndex reconstructs the per-attribute token→values mapping the
// table builds at insert time, as sorted parallel slices.
func buildTextIndex(t *db.Table, rel, attr, relStem string) textAttrIndex {
	byToken := make(map[string]map[string]bool)
	for _, v := range t.DistinctValues(attr) {
		for _, tok := range db.Tokenize(v) {
			s := stem.Stem(tok)
			set := byToken[s]
			if set == nil {
				set = make(map[string]bool)
				byToken[s] = set
			}
			set[v] = true
		}
	}
	idx := textAttrIndex{rel: rel, attr: attr, relStem: relStem, attrStem: stem.Stem(attr)}
	idx.tokens = make([]string, 0, len(byToken))
	for tok := range byToken {
		idx.tokens = append(idx.tokens, tok)
	}
	sort.Strings(idx.tokens)
	idx.postings = make([][]string, len(idx.tokens))
	for i, tok := range idx.tokens {
		vals := make([]string, 0, len(byToken[tok]))
		for v := range byToken[tok] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		idx.postings[i] = vals
	}
	return idx
}

// buildNumIndex collects the sorted distinct values of a numeric column.
func buildNumIndex(t *db.Table, rows [][]db.Value, rel, attr string) numAttrIndex {
	ci := t.ColumnIndex(attr)
	seen := make(map[float64]bool)
	var vals []float64
	for _, row := range rows {
		if n := row[ci].N; !seen[n] {
			seen[n] = true
			vals = append(vals, n)
		}
	}
	sort.Float64s(vals)
	return numAttrIndex{rel: rel, attr: attr, values: vals}
}

// findTextAttrs is the indexed equivalent of db.Database.FindTextAttrs:
// boolean-mode "+tok*" AND semantics over every text attribute, dropping
// query stems that exactly match the stemmed relation or attribute name.
func (ci *candidateIndex) findTextAttrs(keyword string) []db.TextMatch {
	rawTokens := db.Tokenize(keyword)
	if len(rawTokens) == 0 {
		return nil
	}
	stems := make([]string, len(rawTokens))
	for i, tok := range rawTokens {
		stems[i] = stem.Stem(tok)
	}
	var out []db.TextMatch
	for i := range ci.textAttrs {
		ta := &ci.textAttrs[i]
		query := stems[:0:0]
		for _, s := range stems {
			if s == ta.relStem || s == ta.attrStem {
				continue
			}
			query = append(query, s)
		}
		if len(query) == 0 {
			continue
		}
		if vals := ta.matchAll(query); len(vals) > 0 {
			out = append(out, db.TextMatch{Relation: ta.rel, Attribute: ta.attr, Values: vals})
		}
	}
	return out
}

// matchAll intersects, across query stems, the union of postings of tokens
// having the stem as a prefix. Results are sorted, matching Table.MatchAll.
func (ta *textAttrIndex) matchAll(queryStems []string) []string {
	var result map[string]bool
	for _, qs := range queryStems {
		lo := sort.SearchStrings(ta.tokens, qs)
		matched := make(map[string]bool)
		for i := lo; i < len(ta.tokens) && strings.HasPrefix(ta.tokens[i], qs); i++ {
			for _, v := range ta.postings[i] {
				matched[v] = true
			}
		}
		if result == nil {
			result = matched
		} else {
			for v := range result {
				if !matched[v] {
					delete(result, v)
				}
			}
		}
		if len(result) == 0 {
			return nil
		}
	}
	out := make([]string, 0, len(result))
	for v := range result {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// findNumericAttrs is the indexed equivalent of db.Database.FindNumericAttrs.
func (ci *candidateIndex) findNumericAttrs(n float64, op string) []db.NumericMatch {
	if op == "" {
		op = "="
	}
	var out []db.NumericMatch
	for i := range ci.numAttrs {
		na := &ci.numAttrs[i]
		if na.anyMatch(op, n) {
			out = append(out, db.NumericMatch{Relation: na.rel, Attribute: na.attr})
		}
	}
	return out
}

// anyMatch reports whether any stored value v satisfies "v op n". Unknown
// operators (including LIKE against numbers) match nothing, like the scan
// path's per-row Compare errors.
func (na *numAttrIndex) anyMatch(op string, n float64) bool {
	vals := na.values
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

// ---------------------------------------------------------------------------
// Bounded, concurrency-safe memo cache for embedding similarities.

// simCacheShards spreads lock contention across independent shards.
const simCacheShards = 16

// simKey is an unordered phrase pair; Model.Similarity is symmetric, so one
// entry serves both argument orders.
type simKey struct{ a, b string }

func makeSimKey(a, b string) simKey {
	if b < a {
		a, b = b, a
	}
	return simKey{a, b}
}

// simCache memoizes Model.Similarity results with a two-generation
// (current/previous) eviction scheme: when the current generation of a
// shard fills up it becomes the previous generation and a fresh map starts;
// entries hit in the previous generation are promoted. Memory is therefore
// bounded at roughly 2 × perShard × simCacheShards entries while hot pairs
// survive rotation indefinitely.
type simCache struct {
	perShard int
	shards   [simCacheShards]simShard
}

type simShard struct {
	mu        sync.Mutex
	cur, prev map[simKey]float64
}

func newSimCache(capacity int) *simCache {
	per := capacity / simCacheShards
	if per < 64 {
		per = 64
	}
	c := &simCache{perShard: per}
	for i := range c.shards {
		c.shards[i].cur = make(map[simKey]float64)
	}
	return c
}

func (c *simCache) shard(k simKey) *simShard {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(k.a); i++ {
		h = (h ^ uint32(k.a[i])) * prime
	}
	for i := 0; i < len(k.b); i++ {
		h = (h ^ uint32(k.b[i])) * prime
	}
	return &c.shards[h%simCacheShards]
}

func (c *simCache) get(k simKey) (float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.cur[k]; ok {
		return v, true
	}
	if v, ok := s.prev[k]; ok {
		s.promote(c.perShard, k, v)
		return v, true
	}
	return 0, false
}

func (c *simCache) put(k simKey, v float64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promote(c.perShard, k, v)
}

// promote inserts into the current generation, rotating first when full.
// Callers must hold mu.
func (s *simShard) promote(perShard int, k simKey, v float64) {
	if len(s.cur) >= perShard {
		s.prev = s.cur
		s.cur = make(map[simKey]float64, perShard)
	}
	s.cur[k] = v
}
