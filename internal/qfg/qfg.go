package qfg

import (
	"fmt"
	"sort"
	"sync"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// pairKey is an unordered fragment pair (a ≤ b by (context, expr)).
type pairKey struct {
	a, b fragment.Fragment
}

func less(a, b fragment.Fragment) bool {
	if a.Context != b.Context {
		return a.Context < b.Context
	}
	return a.Expr < b.Expr
}

func makePair(a, b fragment.Fragment) pairKey {
	if less(b, a) {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Graph is a Query Fragment Graph at a fixed obscurity level. It is safe for
// concurrent reads after construction; AddQuery must not race with readers.
type Graph struct {
	mu        sync.RWMutex
	obscurity fragment.Obscurity
	nv        map[fragment.Fragment]int
	ne        map[pairKey]int
	queries   int // total logged queries (weighted by multiplicity)
	// sessNe holds decayed cross-query co-occurrence evidence from user
	// sessions (see session.go); nil until AddSession is first called.
	sessNe map[pairKey]float64
	// seed, set only on a delta graph that Live folds into its published
	// snapshot, supplies each session pair's starting weight: the pair's
	// exact weight in seed, so sessNe ends up holding the folded totals.
	seed *Snapshot
	// fresh lists, in arrival order, the fragments whose nv went from
	// absent to present since the last internFresh.
	fresh []fragment.Fragment
}

// New returns an empty QFG at the given obscurity level.
func New(ob fragment.Obscurity) *Graph {
	return &Graph{
		obscurity: ob,
		nv:        make(map[fragment.Fragment]int),
		ne:        make(map[pairKey]int),
	}
}

// Obscurity returns the graph's obscurity level.
func (g *Graph) Obscurity() fragment.Obscurity { return g.obscurity }

// AddQuery folds one alias-resolved query into the graph with the given
// multiplicity (how many times the query appears in the log).
func (g *Graph) AddQuery(q *sqlparse.Query, count int) {
	if count <= 0 {
		return
	}
	frags := fragment.Extract(q, g.obscurity)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.queries += count
	for _, f := range frags {
		if _, ok := g.nv[f]; !ok {
			g.fresh = append(g.fresh, f)
		}
		g.nv[f] += count
	}
	for i := 0; i < len(frags); i++ {
		for j := i + 1; j < len(frags); j++ {
			g.ne[makePair(frags[i], frags[j])] += count
		}
	}
}

// Build constructs a QFG from a parsed log. Queries are alias-resolved in
// place. It returns an error if any log entry fails alias resolution.
func Build(entries []sqlparse.LogEntry, ob fragment.Obscurity) (*Graph, error) {
	g := New(ob)
	for i, e := range entries {
		if err := e.Query.Resolve(nil); err != nil {
			return nil, fmt.Errorf("qfg: log entry %d: %w", i, err)
		}
		g.AddQuery(e.Query, e.Count)
	}
	return g, nil
}

// Occurrences returns nv(f): how many logged queries contain fragment f.
func (g *Graph) Occurrences(f fragment.Fragment) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nv[f]
}

// CoOccurrences returns ne(a, b): how many logged queries contain both a and b.
func (g *Graph) CoOccurrences(a, b fragment.Fragment) int {
	if a == b {
		return g.Occurrences(a)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ne[makePair(a, b)]
}

// Dice returns the Dice similarity coefficient of two fragments:
//
//	Dice(c1, c2) = 2·ne(c1, c2) / (nv(c1) + nv(c2))
//
// It is 0 when neither fragment occurs in the log, and 1 when the fragments
// always occur together.
func (g *Graph) Dice(a, b fragment.Fragment) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	na, nb := g.nv[a], g.nv[b]
	if na+nb == 0 {
		return 0
	}
	var ne float64
	if a == b {
		ne = float64(na)
	} else {
		ne = float64(g.ne[makePair(a, b)])
		if g.sessNe != nil {
			ne += g.sessNe[makePair(a, b)]
		}
	}
	d := 2 * ne / float64(na+nb)
	if d > 1 {
		// Session evidence can push the blended coefficient past the pure
		// Dice ceiling; clamp so downstream weights stay in [0, 1].
		d = 1
	}
	return d
}

// DiceRelations is Dice over the FROM fragments of two relation names. It is
// the co-occurrence signal used for log-driven join path weights (§VI-A2).
func (g *Graph) DiceRelations(relA, relB string) float64 {
	return g.Dice(fragment.Relation(relA), fragment.Relation(relB))
}

// RelationCoOccurrences returns the raw co-occurrence count of two relation
// names' FROM fragments — the unnormalized signal behind DiceRelations,
// exposed for the Dice-vs-raw-count weight ablation.
func (g *Graph) RelationCoOccurrences(relA, relB string) int {
	return g.CoOccurrences(fragment.Relation(relA), fragment.Relation(relB))
}

// Vertices returns the number of distinct fragments observed.
func (g *Graph) Vertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nv)
}

// Edges returns the number of distinct co-occurring fragment pairs.
func (g *Graph) Edges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.ne)
}

// Queries returns the total number of logged queries folded in (weighted by
// multiplicity).
func (g *Graph) Queries() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.queries
}

// Entry pairs a fragment with its occurrence count, for inspection tools.
type Entry struct {
	Fragment fragment.Fragment
	Count    int
}

// Top returns the n most frequent fragments (ties broken by fragment order),
// for the qfg-inspect tool and debugging.
func (g *Graph) Top(n int) []Entry {
	g.mu.RLock()
	entries := make([]Entry, 0, len(g.nv))
	for f, c := range g.nv {
		entries = append(entries, Entry{f, c})
	}
	g.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return less(entries[i].Fragment, entries[j].Fragment)
	})
	if n < len(entries) {
		entries = entries[:n]
	}
	return entries
}

// NeighborEntry pairs a co-occurring fragment with the pair's Dice score.
type NeighborEntry struct {
	Fragment fragment.Fragment
	Count    int
	Dice     float64
}

// Neighbors returns fragments that co-occur with f, sorted by descending
// Dice, for inspection tools.
func (g *Graph) Neighbors(f fragment.Fragment) []NeighborEntry {
	g.mu.RLock()
	var out []NeighborEntry
	for pk, c := range g.ne {
		var other fragment.Fragment
		switch {
		case pk.a == f:
			other = pk.b
		case pk.b == f:
			other = pk.a
		default:
			continue
		}
		d := 2 * float64(c) / float64(g.nv[f]+g.nv[other])
		out = append(out, NeighborEntry{other, c, d})
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dice != out[j].Dice {
			return out[i].Dice > out[j].Dice
		}
		return less(out[i].Fragment, out[j].Fragment)
	})
	return out
}
