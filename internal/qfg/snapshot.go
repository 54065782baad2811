package qfg

import (
	"cmp"
	"slices"
	"sort"

	"templar/internal/fragment"
)

// Snapshot is an immutable, compiled view of a Graph: fragments are interned
// to dense uint32 IDs, nv lives in a flat slice indexed by ID, and ne (with
// any blended session evidence) is CSR-style sorted adjacency probed by
// binary search. A Snapshot answers Dice with a handful of array reads —
// no locks, no map hashing, no string comparisons — and is safe to share
// across any number of concurrent readers.
//
// Snapshots compiled from the same Interner agree on fragment IDs, so a
// serving layer can republish a fresh Snapshot after every log append while
// in-flight readers keep using the one they loaded.
type Snapshot struct {
	obscurity fragment.Obscurity
	interner  *fragment.Interner
	queries   int

	// nv[id] is the occurrence count of fragment id; IDs interned after
	// this snapshot was compiled fall past the end and read as absent.
	nv []int
	// CSR adjacency over fragment IDs: the neighbors of id are
	// colID[rowStart[id]:rowStart[id+1]], sorted ascending, with the
	// blended co-occurrence float64(ne) + sess in co and the raw integer
	// ne in neCount at the same index.
	rowStart []uint32
	colID    []uint32
	co       []float64
	neCount  []int
	// sess[i] is the exact session weight blended into co[i], carried once
	// any folded pair has one; nil means co − float64(ne) recovers it (see
	// sessAt).
	sess []float64
}

// SnapshotSource yields the current snapshot of a possibly-evolving QFG.
// *Snapshot (itself) and *Live (its latest publication) both satisfy it.
type SnapshotSource interface {
	CurrentSnapshot() *Snapshot
}

// CurrentSnapshot returns the snapshot itself, making a fixed *Snapshot a
// SnapshotSource for consumers that never see log appends.
func (s *Snapshot) CurrentSnapshot() *Snapshot { return s }

// internFragments interns the graph's fragment set into in, in sorted
// order, so a fresh interner assigns deterministic IDs regardless of map
// iteration order. The caller holds g.mu or owns g outright.
func (g *Graph) internFragments(in *fragment.Interner) {
	frags := make([]fragment.Fragment, 0, len(g.nv))
	for f := range g.nv {
		frags = append(frags, f)
	}
	internSorted(in, frags)
}

// internFresh interns, in sorted order, only the fragments added since the
// last call, and forgets them. Live.Replay calls it after every replayed
// operation: fragments interned earlier keep their IDs (Intern is
// idempotent), so this assigns exactly the IDs internFragments would, at
// the cost of the operation's own new fragments rather than the whole
// growing delta. The caller owns g outright.
func (g *Graph) internFresh(in *fragment.Interner) {
	internSorted(in, g.fresh)
	g.fresh = g.fresh[:0]
}

func internSorted(in *fragment.Interner, frags []fragment.Fragment) {
	sort.Slice(frags, func(i, j int) bool { return less(frags[i], frags[j]) })
	for _, f := range frags {
		in.Intern(f)
	}
}

// Snapshot compiles an immutable snapshot of the graph's current state by
// folding the whole graph into an empty snapshot. Fragments are interned
// into in; passing nil creates a fresh table. The compile holds the graph's
// read lock, so it can run concurrently with readers but serializes against
// AddQuery/AddSession.
func (g *Graph) Snapshot(in *fragment.Interner) *Snapshot {
	if in == nil {
		in = fragment.NewInterner()
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.internFragments(in)
	return (&Snapshot{obscurity: g.obscurity, interner: in, rowStart: []uint32{0}}).fold(g)
}

// sessAt returns the session weight on half-edge i: the exact weight a
// fold carried, or, for a snapshot without one (store-loaded, or with no
// session evidence at all), the remainder of co over the integer ne.
func (s *Snapshot) sessAt(i int) float64 {
	if s.sess != nil {
		return s.sess[i]
	}
	if w := s.co[i] - float64(s.neCount[i]); w > 0 {
		return w
	}
	return 0
}

// sessionWeight returns a fragment pair's session weight (sessAt), or 0
// when the pair has no edge in s.
func (s *Snapshot) sessionWeight(pk pairKey) float64 {
	if i := s.edgeIndex(s.Lookup(pk.a), s.Lookup(pk.b)); i >= 0 {
		return s.sessAt(i)
	}
	return 0
}

// fold returns the snapshot that results from folding the delta graph d
// into s, which stays untouched. The caller has already interned d's
// fragments into s's table (internFragments or internFresh). d's nv, ne
// and query counts add to s's; d's session weights replace s's on the
// pairs d touches, because a delta graph seeded from s (Graph.seed)
// accumulates them from s's exact weights.
// Rows d does not touch are copied as they are and touched rows are merged
// with d's sorted half-edges, so a fold costs one copy of the arrays plus
// O(δ log δ) in the delta's size δ.
func (s *Snapshot) fold(d *Graph) *Snapshot {
	in := s.interner
	n := in.Len()
	out := &Snapshot{
		obscurity: s.obscurity,
		interner:  in,
		queries:   s.queries + d.queries,
		nv:        make([]int, n),
	}
	copy(out.nv, s.nv)
	for f, c := range d.nv {
		out.nv[in.Lookup(f)] += c
	}

	// Both half-edges of every pair d touches, with the pair's final ne and
	// session weight, sorted by (row, col) for the merge below.
	type halfEdge struct {
		row, col uint32
		ne       int
		sess     float64
		added    bool // the pair has no edge in s
	}
	touched := make([]halfEdge, 0, 2*(len(d.ne)+len(d.sessNe)))
	withSess := s.sess != nil || len(d.sessNe) > 0
	visit := func(pk pairKey) {
		a, b := in.Lookup(pk.a), in.Lookup(pk.b)
		e := halfEdge{row: a, col: b, added: true}
		if i := s.edgeIndex(a, b); i >= 0 {
			e.ne, e.sess, e.added = s.neCount[i], s.sessAt(i), false
		}
		e.ne += d.ne[pk]
		if w, ok := d.sessNe[pk]; ok {
			e.sess = w
		}
		// A touched pair's co changes, so its session weight can no longer
		// be recovered from co: carry every pair's weight from here on.
		withSess = withSess || e.sess != 0
		touched = append(touched, e, halfEdge{b, a, e.ne, e.sess, e.added})
	}
	for pk := range d.ne {
		visit(pk)
	}
	for pk := range d.sessNe {
		if _, ok := d.ne[pk]; !ok {
			visit(pk) // session-only pair: never co-occurs within one query
		}
	}
	slices.SortFunc(touched, func(x, y halfEdge) int {
		return cmp.Compare(uint64(x.row)<<32|uint64(x.col), uint64(y.row)<<32|uint64(y.col))
	})

	// Rows past s's last vertex are empty in s. Each row starts where it
	// did in s, shifted by the half-edges added to the rows before it.
	baseStart := func(r int) int { return int(s.rowStart[min(r, len(s.nv))]) }
	out.rowStart = make([]uint32, n+1)
	for _, e := range touched {
		if e.added {
			out.rowStart[e.row+1]++
		}
	}
	var shift uint32
	for r := range out.rowStart {
		shift += out.rowStart[r]
		out.rowStart[r] = uint32(baseStart(r)) + shift
	}

	half := int(out.rowStart[n])
	out.colID = make([]uint32, half)
	out.co = make([]float64, half)
	out.neCount = make([]int, half)
	if withSess {
		out.sess = make([]float64, half)
	}
	// Merge: src walks s's half-edges and dst out's. Touched half-edges are
	// sorted the way s lays its rows out, so untouched stretches between
	// them are copied in one block each.
	src, dst := 0, 0
	copyTo := func(end int) {
		copy(out.colID[dst:], s.colID[src:end])
		copy(out.co[dst:], s.co[src:end])
		copy(out.neCount[dst:], s.neCount[src:end])
		if out.sess != nil {
			for i := src; i < end; i++ {
				out.sess[dst+i-src] = s.sessAt(i)
			}
		}
		dst += end - src
		src = end
	}
	for _, e := range touched {
		lo, hi := baseStart(int(e.row)), baseStart(int(e.row)+1)
		at, found := slices.BinarySearch(s.colID[lo:hi], e.col)
		copyTo(lo + at)
		if found {
			src++ // the pair's old weights, replaced below
		}
		out.colID[dst], out.neCount[dst] = e.col, e.ne
		out.co[dst] = float64(e.ne) + e.sess
		if out.sess != nil {
			out.sess[dst] = e.sess
		}
		dst++
	}
	copyTo(len(s.colID))
	return out
}

// Obscurity returns the obscurity level the snapshot was compiled at.
func (s *Snapshot) Obscurity() fragment.Obscurity { return s.obscurity }

// Interner returns the shared interning table fragment IDs come from.
func (s *Snapshot) Interner() *fragment.Interner { return s.interner }

// Queries returns the total logged queries at compile time.
func (s *Snapshot) Queries() int { return s.queries }

// Vertices returns the number of fragment IDs the snapshot covers (the
// interner's size at compile time, including fragments from sibling graphs
// sharing the table).
func (s *Snapshot) Vertices() int { return len(s.nv) }

// Edges returns the number of distinct co-occurring fragment pairs
// (including session-only pairs).
func (s *Snapshot) Edges() int { return len(s.colID) / 2 }

// Lookup returns the snapshot-local ID of a fragment, or fragment.NoID when
// the fragment is absent (never interned, or interned after compile).
// Consumers translate fragments to IDs once per request with Lookup, then
// probe with the ID-based methods.
func (s *Snapshot) Lookup(f fragment.Fragment) uint32 {
	id := s.interner.Lookup(f)
	if !s.inRange(id) {
		return fragment.NoID
	}
	return id
}

// inRange reports whether id indexes this snapshot's arrays. The uint64
// comparison stays correct on 32-bit platforms, where int(fragment.NoID)
// would wrap negative and slip past an int comparison.
func (s *Snapshot) inRange(id uint32) bool {
	return uint64(id) < uint64(len(s.nv))
}

// occ is nv by ID; absent IDs (including fragment.NoID) occur zero times.
func (s *Snapshot) occ(id uint32) int {
	if !s.inRange(id) {
		return 0
	}
	return s.nv[id]
}

// edgeIndex binary-searches the CSR index of the (a, b) edge for a != b,
// probing the shorter of the two adjacency rows. It returns -1 when the
// fragments never co-occur or either ID is absent.
func (s *Snapshot) edgeIndex(a, b uint32) int {
	if !s.inRange(a) || !s.inRange(b) {
		return -1
	}
	if s.rowStart[a+1]-s.rowStart[a] > s.rowStart[b+1]-s.rowStart[b] {
		a, b = b, a
	}
	lo, hi := int(s.rowStart[a]), int(s.rowStart[a+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := s.colID[mid]; {
		case c < b:
			lo = mid + 1
		case c > b:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// edgeCo returns the blended co-occurrence float64(ne) + sess for a != b.
func (s *Snapshot) edgeCo(a, b uint32) float64 {
	if i := s.edgeIndex(a, b); i >= 0 {
		return s.co[i]
	}
	return 0
}

// edgeNe returns the raw integer co-occurrence count for a != b.
func (s *Snapshot) edgeNe(a, b uint32) int {
	if i := s.edgeIndex(a, b); i >= 0 {
		return s.neCount[i]
	}
	return 0
}

// OccurrencesID returns nv for a fragment ID.
func (s *Snapshot) OccurrencesID(id uint32) int { return s.occ(id) }

// Occurrences returns nv(f), like Graph.Occurrences.
func (s *Snapshot) Occurrences(f fragment.Fragment) int { return s.occ(s.Lookup(f)) }

// DiceID is the lock-free hot path: the Dice coefficient of two interned
// fragments, bit-identical to Graph.Dice on the same state. fragment.NoID
// operands score as absent fragments.
func (s *Snapshot) DiceID(a, b uint32) float64 {
	na, nb := s.occ(a), s.occ(b)
	if na+nb == 0 {
		return 0
	}
	var ne float64
	if a == b {
		ne = float64(na)
	} else {
		ne = s.edgeCo(a, b)
	}
	d := 2 * ne / float64(na+nb)
	if d > 1 {
		// Same clamp as Graph.Dice: session evidence can push the blended
		// coefficient past the pure Dice ceiling.
		d = 1
	}
	return d
}

// Dice looks both fragments up and defers to DiceID.
func (s *Snapshot) Dice(a, b fragment.Fragment) float64 {
	ia := s.Lookup(a)
	var ib uint32
	if a == b {
		ib = ia
	} else {
		ib = s.Lookup(b)
	}
	return s.DiceID(ia, ib)
}

// CoOccurrences returns the raw ne(a, b), like Graph.CoOccurrences.
func (s *Snapshot) CoOccurrences(a, b fragment.Fragment) int {
	if a == b {
		return s.Occurrences(a)
	}
	return s.edgeNe(s.Lookup(a), s.Lookup(b))
}

// DiceRelations is Dice over FROM fragments of two relation names; it
// satisfies joinpath.DiceSource, so log-driven join weights can be derived
// from the snapshot at generator build time.
func (s *Snapshot) DiceRelations(relA, relB string) float64 {
	return s.Dice(fragment.Relation(relA), fragment.Relation(relB))
}

// RelationCoOccurrences satisfies joinpath.CountSource for the raw-count
// weight ablation.
func (s *Snapshot) RelationCoOccurrences(relA, relB string) int {
	return s.CoOccurrences(fragment.Relation(relA), fragment.Relation(relB))
}
