package qfg

import (
	"fmt"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// Session support implements the paper's stated future work (§VIII):
// exploiting user sessions in the SQL query log. Queries issued within one
// session serve a single information need, so fragments from *different*
// queries of a session carry co-occurrence evidence too — weaker than
// within-query co-occurrence, and decaying with the distance between the
// queries in the session.
//
// Session evidence is stored separately from the integer nv/ne counts of
// Definition 6 and folded into Dice as a fractional addend:
//
//	Dice_s(c1, c2) = (2·(ne(c1,c2) + sess(c1,c2))) / (nv(c1) + nv(c2))
//
// where sess accumulates decay^(j-i) for fragments of the i-th and j-th
// query of a session. With no sessions added, Dice_s ≡ Dice.

// AddSession folds an ordered session of alias-resolved queries into the
// graph. Each query is first added individually (contributing the usual
// nv/ne counts); then every cross-query fragment pair (fa from query i,
// fb from query j, i < j) gains decay^(j-i) of session co-occurrence.
// decay must lie in (0, 1]; count is the session's multiplicity.
func (g *Graph) AddSession(queries []*sqlparse.Query, count int, decay float64) error {
	if decay <= 0 || decay > 1 {
		return fmt.Errorf("qfg: session decay %v outside (0, 1]", decay)
	}
	if count <= 0 {
		return nil
	}
	frags := make([][]fragment.Fragment, len(queries))
	for i, q := range queries {
		g.AddQuery(q, count)
		frags[i] = fragment.Extract(q, g.obscurity)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sessNe == nil {
		g.sessNe = make(map[pairKey]float64)
	}
	for i := 0; i < len(frags); i++ {
		w := 1.0
		for j := i + 1; j < len(frags); j++ {
			w *= decay
			for _, fa := range frags[i] {
				for _, fb := range frags[j] {
					if fa == fb {
						continue
					}
					pk := makePair(fa, fb)
					base, ok := g.sessNe[pk]
					if !ok && g.seed != nil {
						base = g.seed.sessionWeight(pk)
					}
					g.sessNe[pk] = base + w*float64(count)
				}
			}
		}
	}
	return nil
}

// SessionCoOccurrence returns the accumulated (decayed) cross-query session
// evidence for a fragment pair.
func (g *Graph) SessionCoOccurrence(a, b fragment.Fragment) float64 {
	if a == b {
		return 0
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.sessNe[makePair(a, b)]
}

// SessionEdges returns the number of fragment pairs carrying session
// evidence.
func (g *Graph) SessionEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.sessNe)
}
