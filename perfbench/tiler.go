package main

import (
	"fmt"
	"strings"

	"templar/internal/datasets"
	"templar/internal/db"
	"templar/internal/keyword"
	"templar/internal/schema"
	"templar/internal/sqlparse"
	"templar/internal/xrand"
)

// tokenAlphabet spells the per-copy marker tokens. Only consonants other
// than s and y: a three-letter token of these has no vowel, so the Porter
// stemmer leaves it unchanged, and all tokens have the same length, so no
// token is a prefix of another under the full-text index's prefix match.
const tokenAlphabet = "bcdfghjklmnpqrtvwxz"

// maxCopies is how many distinct copy tokens the alphabet spells.
const maxCopies = len(tokenAlphabet) * len(tokenAlphabet)

// copyTokens returns k distinct marker tokens ("qbc", "qbd", ...) in an
// order drawn from seed.
func copyTokens(k int, seed uint64) ([]string, error) {
	if k < 1 || k > maxCopies {
		return nil, fmt.Errorf("tile: %d copies outside [1, %d]", k, maxCopies)
	}
	all := make([]string, 0, maxCopies)
	for i := 0; i < len(tokenAlphabet); i++ {
		for j := 0; j < len(tokenAlphabet); j++ {
			all = append(all, "q"+tokenAlphabet[i:i+1]+tokenAlphabet[j:j+1])
		}
	}
	rng := xrand.New(seed)
	for i := len(all) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		all[i], all[j] = all[j], all[i]
	}
	return all[:k], nil
}

// tile builds one dataset holding k renamed copies of base: every relation
// r becomes r_<token>, every text cell and every string literal of the
// gold log gains " <token>", and every task keyword gains the token as a
// trailing word. Keyword mapping therefore resolves a copy's request to
// that copy's relations and values, while candidate scans, the QFG and
// the schema the join search runs over all grow k-fold. It uses only the
// public constructors of schema, db and sqlparse.
func tile(base *datasets.Dataset, k int, seed uint64) (*datasets.Dataset, error) {
	tokens, err := copyTokens(k, seed)
	if err != nil {
		return nil, err
	}
	src := base.DB.Schema()
	rels := src.Relations()
	g := schema.NewGraph()
	for _, tok := range tokens {
		for _, name := range rels {
			r, _ := src.Relation(name)
			if err := g.AddRelation(schema.Relation{
				Name:       tiledName(name, tok),
				Attributes: append([]schema.Attribute(nil), r.Attributes...),
			}); err != nil {
				return nil, fmt.Errorf("tile: %w", err)
			}
		}
		for _, fk := range src.ForeignKeys() {
			if err := g.AddForeignKey(schema.ForeignKey{
				FromRel: tiledName(fk.FromRel, tok), FromAttr: fk.FromAttr,
				ToRel: tiledName(fk.ToRel, tok), ToAttr: fk.ToAttr,
			}); err != nil {
				return nil, fmt.Errorf("tile: %w", err)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("tile: %w", err)
	}

	database := db.New(g)
	for _, tok := range tokens {
		for _, name := range rels {
			for _, row := range base.DB.Table(name).Rows() {
				out := make([]db.Value, len(row))
				for i, v := range row {
					if !v.IsNum {
						v = db.Str(v.S + " " + tok)
					}
					out[i] = v
				}
				if err := database.Insert(tiledName(name, tok), out); err != nil {
					return nil, fmt.Errorf("tile: %w", err)
				}
			}
		}
	}

	out := &datasets.Dataset{Name: fmt.Sprintf("%sx%d", base.Name, k), DB: database}
	for _, tok := range tokens {
		for _, t := range base.Tasks {
			gold, err := tileSQL(t.Gold, rels, tok)
			if err != nil {
				return nil, fmt.Errorf("tile: %s: %w", t.ID, err)
			}
			q, err := sqlparse.Parse(gold)
			if err != nil {
				return nil, fmt.Errorf("tile: %s: %w", t.ID, err)
			}
			if err := q.Resolve(nil); err != nil {
				return nil, fmt.Errorf("tile: %s: %w", t.ID, err)
			}
			kws := make([]keyword.Keyword, len(t.Keywords))
			for i, kw := range t.Keywords {
				kw.Text += " " + tok
				kw.Meta.Aggs = append([]string(nil), kw.Meta.Aggs...)
				kws[i] = kw
			}
			out.Tasks = append(out.Tasks, datasets.Task{
				ID:            t.ID + "@" + tok,
				NLQ:           t.NLQ,
				Keywords:      kws,
				Gold:          gold,
				GoldCanonical: q.Canonical(),
				Hazard:        t.Hazard,
				Template:      t.Template,
			})
		}
	}
	return out, nil
}

func tiledName(rel, tok string) string { return rel + "_" + tok }

// tileSQL renames a gold query into one copy: relation names (and column
// qualifiers naming a relation rather than an alias) gain the copy suffix,
// and string literals gain the copy token, inside a trailing LIKE wildcard.
func tileSQL(src string, rels []string, tok string) (string, error) {
	q, err := sqlparse.Parse(src)
	if err != nil {
		return "", err
	}
	isRel := make(map[string]bool, len(rels))
	for _, r := range rels {
		isRel[r] = true
	}
	aliases := map[string]bool{}
	for _, t := range q.From {
		if t.Alias != "" && t.Alias != t.Name {
			aliases[t.Alias] = true
		}
	}
	col := func(c *sqlparse.ColumnRef) {
		if isRel[c.Table] && !aliases[c.Table] {
			c.Table = tiledName(c.Table, tok)
		}
	}
	val := func(v *sqlparse.Value) {
		if v.Kind != sqlparse.StringVal {
			return
		}
		if strings.HasSuffix(v.S, "%") {
			v.S = strings.TrimSuffix(v.S, "%") + " " + tok + "%"
		} else {
			v.S += " " + tok
		}
	}
	for i := range q.From {
		t := &q.From[i]
		if t.Alias == t.Name {
			t.Alias = tiledName(t.Alias, tok)
		}
		t.Name = tiledName(t.Name, tok)
	}
	for i := range q.Select {
		col(&q.Select[i].Column)
	}
	for i := range q.GroupBy {
		col(&q.GroupBy[i])
	}
	for i := range q.OrderBy {
		col(&q.OrderBy[i].Expr.Column)
	}
	for i, c := range q.Where {
		switch v := c.(type) {
		case sqlparse.JoinCond:
			col(&v.Left)
			col(&v.Right)
			q.Where[i] = v
		case sqlparse.Pred:
			col(&v.Column)
			val(&v.Value)
			q.Where[i] = v
		case sqlparse.InPred:
			col(&v.Column)
			vals := append([]sqlparse.Value(nil), v.Values...)
			for j := range vals {
				val(&vals[j])
			}
			v.Values = vals
			q.Where[i] = v
		case sqlparse.BetweenPred:
			col(&v.Column)
			val(&v.Lo)
			val(&v.Hi)
			q.Where[i] = v
		default:
			return "", fmt.Errorf("unsupported condition %T", c)
		}
	}
	return q.String(), nil
}
