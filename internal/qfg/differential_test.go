package qfg_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/store"
)

// diffBaseLog is the history every construction path starts from. The
// op queries below reuse its fragments, so pairs gain weight on top of
// existing edges, and add two relations in anti-sorted order, so new rows
// are inserted as well.
const diffBaseLog = `
3x: SELECT j.name FROM journal j WHERE j.name = 'TKDE'
2x: SELECT p.title FROM publication p, journal j WHERE p.jid = j.jid
SELECT a.name FROM author a, writes w, publication p WHERE a.aid = w.aid AND w.pid = p.pid
SELECT p.title, p.year FROM publication p WHERE p.year > 2003
`

func resolvedQueries(t *testing.T, sqls ...string) []*sqlparse.Query {
	t.Helper()
	out := make([]*sqlparse.Query, len(sqls))
	for i, s := range sqls {
		q, err := sqlparse.Parse(s)
		if err == nil {
			err = q.Resolve(nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		out[i] = q
	}
	return out
}

// diffOps mixes query batches with sessions of multiplicity 3 whose queries
// repeat fragments, so one session op adds to the same pair several times.
func diffOps(t *testing.T, decay float64) []qfg.ReplayOp {
	const (
		journal = "SELECT j.name FROM journal j WHERE j.name = 'TKDE'"
		pubJour = "SELECT p.title FROM publication p, journal j WHERE p.jid = j.jid"
		author  = "SELECT a.name FROM author a, writes w, publication p WHERE a.aid = w.aid AND w.pid = p.pid"
		pubYear = "SELECT p.title, p.year FROM publication p WHERE p.year > 2003"
	)
	return []qfg.ReplayOp{
		{Queries: resolvedQueries(t, journal, author), Counts: []int{2, 3}},
		{Session: true, Count: 3, Decay: decay, Queries: resolvedQueries(t, journal, pubJour, journal, author)},
		{Queries: resolvedQueries(t, "SELECT z.name FROM z_venue z, journal j WHERE z.jid = j.jid")},
		{Session: true, Count: 3, Decay: decay, Queries: resolvedQueries(t, author, pubYear, pubJour, pubYear)},
		{Session: true, Count: 3, Decay: decay, Queries: resolvedQueries(t,
			"SELECT b.name FROM b_conf b", pubJour, "SELECT z.name FROM z_venue z")},
		{Queries: resolvedQueries(t, pubJour, pubYear, journal), Counts: []int{1, 3, 2}},
	}
}

// diffBaseGraph folds the base log plus one session of multiplicity 3, so
// the base snapshot already carries non-dyadic session weights.
func diffBaseGraph(t *testing.T, decay float64) *qfg.Graph {
	t.Helper()
	entries, err := sqlparse.ParseLog(diffBaseLog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	session := []*sqlparse.Query{entries[0].Query, entries[1].Query, entries[3].Query, entries[0].Query}
	if err := g.AddSession(session, 3, decay); err != nil {
		t.Fatal(err)
	}
	return g
}

func applyOp(t *testing.T, l *qfg.Live, op qfg.ReplayOp) {
	t.Helper()
	if !op.Session {
		l.AddQueries(op.Queries, op.Counts)
	} else if err := l.AddSession(op.Queries, op.Count, op.Decay); err != nil {
		t.Fatal(err)
	}
}

func applyOpToGraph(t *testing.T, g *qfg.Graph, op qfg.ReplayOp) {
	t.Helper()
	if op.Session {
		if err := g.AddSession(op.Queries, op.Count, op.Decay); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, q := range op.Queries {
		count := 1
		if op.Counts != nil {
			count = op.Counts[i]
		}
		g.AddQuery(q, count)
	}
}

func replayed(t *testing.T, l *qfg.Live, ops []qfg.ReplayOp) *qfg.Snapshot {
	t.Helper()
	if err := l.Replay(ops); err != nil {
		t.Fatal(err)
	}
	return l.CurrentSnapshot()
}

// TestConstructionPathsDifferential is the differential oracle across every
// way a snapshot is built, at non-dyadic session decays where a weight
// summed in a different order changes bits. After each op it asserts
// bit-identical compiled arrays and interner tables between:
//
//   - a batch Build with every op folded into one Graph, then Graph.Snapshot
//     (over the live interner, so IDs are the ones appends assigned);
//   - per-op Live.AddQueries/AddSession;
//   - Live.Replay of the same ops from the base.
//
// It then loads the base from a store archive — an Encode/Decode round trip
// and an mmap'd store.Open — and checks that the loaded snapshot, and an
// empty fold over it, are the original bit for bit, that per-op appends on
// it match Replay on the same base, and that both loaders end up in the
// same state.
func TestConstructionPathsDifferential(t *testing.T) {
	for _, decay := range []float64{0.3, 0.7} {
		t.Run(fmt.Sprint(decay), func(t *testing.T) {
			ops := diffOps(t, decay)

			live := qfg.NewLive(diffBaseGraph(t, decay))
			for k, op := range ops {
				applyOp(t, live, op)
				got := live.CurrentSnapshot()

				batch := diffBaseGraph(t, decay)
				for _, op := range ops[:k+1] {
					applyOpToGraph(t, batch, op)
				}
				qfg.AssertSnapshotsBitIdentical(t, got, batch.Snapshot(got.Interner()))
				qfg.AssertSnapshotsBitIdentical(t, got, replayed(t, qfg.NewLive(diffBaseGraph(t, decay)), ops[:k+1]))
			}

			original := diffBaseGraph(t, decay).Snapshot(nil)
			path := filepath.Join(t.TempDir(), "diff.qfg")
			if err := store.WriteFile(path, "diff", original); err != nil {
				t.Fatal(err)
			}
			loaders := map[string]func() *qfg.Snapshot{
				"decode": func() *qfg.Snapshot {
					ar, err := store.Decode(store.Encode("diff", original))
					if err != nil {
						t.Fatal(err)
					}
					return ar.Snapshot
				},
				"mmap": func() *qfg.Snapshot {
					m, err := store.Open(path)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { m.Close() })
					return m.Snapshot
				},
			}
			final := map[string]*qfg.Snapshot{}
			for name, load := range loaders {
				loaded := load()
				qfg.AssertSnapshotsBitIdentical(t, loaded, original)
				qfg.AssertSnapshotsBitIdentical(t, replayed(t, qfg.NewLiveFromSnapshot(load()), nil), original)
				live := qfg.NewLiveFromSnapshot(loaded)
				for k, op := range ops {
					applyOp(t, live, op)
					qfg.AssertSnapshotsBitIdentical(t, live.CurrentSnapshot(), replayed(t, qfg.NewLiveFromSnapshot(load()), ops[:k+1]))
				}
				final[name] = live.CurrentSnapshot()
			}
			qfg.AssertSnapshotsBitIdentical(t, final["mmap"], final["decode"])
		})
	}
}
