package qfg

import (
	"sync"
	"sync/atomic"

	"templar/internal/sqlparse"
)

// Live is an atomically published Snapshot that accepts log appends:
// readers load the current snapshot with one atomic pointer read and never
// block, while an append folds a small delta graph — only the appended
// queries and sessions — into the current snapshot and publishes the result
// (copy-on-write). Every snapshot shares one interning table, so fragment
// IDs stay stable across republishes.
//
// A fold copies the untouched CSR rows and merges the touched ones, so an
// append costs one O(V + E) array copy plus the delta's own work; appends
// are expected to be rare relative to reads (a serving layer folding user
// queries back into its log). Concurrent appends serialize on an internal
// mutex.
type Live struct {
	mu   sync.Mutex // serializes appends: load, fold, publish
	snap atomic.Pointer[Snapshot]
}

// NewLive compiles the graph and publishes it as the first snapshot, with a
// fresh interning table. The Live keeps no reference to g.
func NewLive(g *Graph) *Live {
	return NewLiveFromSnapshot(g.Snapshot(nil))
}

// NewLiveFromSnapshot builds a Live log around a loaded snapshot: the
// snapshot itself is the first publication (so readers start from exactly
// the stored state, bit for bit), and its interner keeps assigning IDs —
// fragments already in the store keep their IDs across every subsequent
// republish.
func NewLiveFromSnapshot(s *Snapshot) *Live {
	l := &Live{}
	l.snap.Store(s)
	return l
}

// CurrentSnapshot returns the latest published snapshot (lock-free).
func (l *Live) CurrentSnapshot() *Snapshot { return l.snap.Load() }

// AddQueries folds a batch of alias-resolved queries into the log and
// republishes once: readers see either none or all of the batch. counts[i]
// is the multiplicity of queries[i]; a nil counts applies 1 to every query.
func (l *Live) AddQueries(queries []*sqlparse.Query, counts []int) {
	if counts != nil && len(counts) != len(queries) {
		// Fail before touching the log: a partial batch must never be
		// half-applied.
		panic("qfg: AddQueries counts length does not match queries")
	}
	if len(queries) == 0 {
		return
	}
	// A query batch cannot fail to fold.
	_ = l.Replay([]ReplayOp{{Queries: queries, Counts: counts}})
}

// AddSession folds an ordered session of alias-resolved queries into the
// log (see Graph.AddSession) and republishes.
func (l *Live) AddSession(queries []*sqlparse.Query, count int, decay float64) error {
	return l.Replay([]ReplayOp{{Session: true, Queries: queries, Count: count, Decay: decay}})
}

// Reset replaces the live state in place with the given snapshot, exactly
// as NewLiveFromSnapshot would build it: the snapshot's interning table
// (with its pinned fragment IDs) becomes the live one. Readers holding the
// Live see the new state on their next CurrentSnapshot load — the
// re-bootstrap path a replication follower takes when its applied position
// has been compacted away on the primary.
func (l *Live) Reset(s *Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snap.Store(s)
}

// ReplayOp is one logged append operation for Replay: a query batch
// (Counts[i] is Queries[i]'s multiplicity, nil = all 1) or, with Session
// set, an ordered session with the given multiplicity and decay.
type ReplayOp struct {
	Session bool
	Queries []*sqlparse.Query
	Counts  []int
	Count   int
	Decay   float64
}

// Replay folds a sequence of recovered append operations into the log and
// republishes once, producing a snapshot byte-identical to the one an
// engine that had applied the same operations through AddQueries and
// AddSession would serve. Identity holds because each operation's new
// fragments are interned in sorted order before the next operation's — the
// exact ID assignment the per-operation republishes would have made — and
// session weights accumulate from the published weights in the same record
// order; only the fold is deferred to the end. An error mid-replay (a
// corrupt operation that validation upstream should have rejected)
// publishes nothing, but earlier operations' fragments may already hold
// IDs, so the Live no longer assigns IDs like its peers.
func (l *Live) Replay(ops []ReplayOp) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.snap.Load()
	d := New(base.obscurity)
	d.seed = base
	for _, op := range ops {
		if op.Session {
			if err := d.AddSession(op.Queries, op.Count, op.Decay); err != nil {
				return err
			}
		} else {
			for i, q := range op.Queries {
				count := 1
				if op.Counts != nil {
					count = op.Counts[i]
				}
				d.AddQuery(q, count)
			}
		}
		d.internFresh(base.interner)
	}
	l.snap.Store(base.fold(d))
	return nil
}
