package qfg

import (
	"math"
	"reflect"
	"testing"

	"templar/internal/fragment"
	"templar/internal/sqlparse"
)

// partsGraph builds a small graph carrying both within-query and session
// evidence, so the round-trip exercises integer counts and blended floats.
func partsGraph(t *testing.T) *Graph {
	t.Helper()
	entries, err := sqlparse.ParseLog(`
4x: SELECT j.name FROM journal j
2x: SELECT p.title FROM publication p WHERE p.year > 2003
SELECT p.title FROM journal j, publication p WHERE j.name = 'TMC' AND p.jid = j.jid
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddSession([]*sqlparse.Query{entries[0].Query, entries[2].Query}, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	return g
}

func samePartsBits(a, b SnapshotParts) bool {
	if a.Obscurity != b.Obscurity || a.Queries != b.Queries {
		return false
	}
	if !reflect.DeepEqual(a.NV, b.NV) || !reflect.DeepEqual(a.RowStart, b.RowStart) ||
		!reflect.DeepEqual(a.ColID, b.ColID) || !reflect.DeepEqual(a.NECount, b.NECount) {
		return false
	}
	if len(a.Co) != len(b.Co) {
		return false
	}
	for i := range a.Co {
		if math.Float64bits(a.Co[i]) != math.Float64bits(b.Co[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotPartsRoundTrip(t *testing.T) {
	snap := partsGraph(t).Snapshot(nil)
	re, err := NewSnapshotFromParts(snap.Interner(), snap.Parts())
	if err != nil {
		t.Fatal(err)
	}
	if !samePartsBits(re.Parts(), snap.Parts()) {
		t.Fatal("parts changed across NewSnapshotFromParts")
	}
	if re.Edges() != snap.Edges() || re.Vertices() != snap.Vertices() || re.Queries() != snap.Queries() {
		t.Fatalf("stats diverged: %d/%d/%d vs %d/%d/%d",
			re.Edges(), re.Vertices(), re.Queries(), snap.Edges(), snap.Vertices(), snap.Queries())
	}
	n := uint32(snap.Vertices())
	for a := uint32(0); a < n; a++ {
		for b := a; b < n; b++ {
			if got, want := re.DiceID(a, b), snap.DiceID(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DiceID(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestNewSnapshotFromPartsValidation(t *testing.T) {
	snap := partsGraph(t).Snapshot(nil)
	good := snap.Parts()
	in := snap.Interner()

	mutate := func(name string, f func(p *SnapshotParts)) {
		p := good
		// Deep-copy the slices a case may edit in place.
		p.NV = append([]int(nil), good.NV...)
		p.RowStart = append([]uint32(nil), good.RowStart...)
		p.ColID = append([]uint32(nil), good.ColID...)
		p.Co = append([]float64(nil), good.Co...)
		p.NECount = append([]int(nil), good.NECount...)
		f(&p)
		if _, err := NewSnapshotFromParts(in, p); err == nil {
			t.Errorf("%s: invalid parts accepted", name)
		}
	}

	if _, err := NewSnapshotFromParts(nil, good); err == nil {
		t.Error("nil interner accepted")
	}
	mutate("short row index", func(p *SnapshotParts) { p.RowStart = p.RowStart[:len(p.RowStart)-1] })
	mutate("row index not starting at 0", func(p *SnapshotParts) { p.RowStart[0] = 1 })
	mutate("row index overrunning adjacency", func(p *SnapshotParts) { p.RowStart[len(p.RowStart)-1]++ })
	mutate("decreasing row index", func(p *SnapshotParts) { p.RowStart[1] = p.RowStart[len(p.RowStart)-1] + 1 })
	mutate("neighbor out of range", func(p *SnapshotParts) { p.ColID[0] = uint32(len(p.NV)) })
	mutate("unsorted row", func(p *SnapshotParts) {
		// Give the first fragment with ≥ 2 neighbors a duplicate neighbor.
		for id := 0; id+1 < len(p.RowStart); id++ {
			if p.RowStart[id+1]-p.RowStart[id] >= 2 {
				p.ColID[p.RowStart[id]+1] = p.ColID[p.RowStart[id]]
				return
			}
		}
		t.Fatal("no fragment with two neighbors")
	})
	mutate("negative nv", func(p *SnapshotParts) { p.NV[0] = -1 })
	mutate("negative ne", func(p *SnapshotParts) { p.NECount[0] = -1 })
	mutate("negative queries", func(p *SnapshotParts) { p.Queries = -1 })
	mutate("adjacency arrays disagreeing", func(p *SnapshotParts) { p.Co = p.Co[:len(p.Co)-1] })
	mutate("more vertices than interned fragments", func(p *SnapshotParts) {
		p.NV = append(p.NV, 1)
		p.RowStart = append(p.RowStart, p.RowStart[len(p.RowStart)-1])
	})
}

// TestNewLiveFromSnapshot checks the store-loaded serving path: the first
// publication is the loaded snapshot itself, appends keep working, and
// fragment IDs stay stable across the republish.
func TestNewLiveFromSnapshot(t *testing.T) {
	snap := partsGraph(t).Snapshot(nil)
	live := NewLiveFromSnapshot(snap)
	if live.CurrentSnapshot() != snap {
		t.Fatal("first publication is not the loaded snapshot")
	}
	q, err := sqlparse.Parse("SELECT j.name FROM journal j WHERE j.name = 'TKDE'")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	live.AddQueries([]*sqlparse.Query{q}, []int{2})
	after := live.CurrentSnapshot()
	if after.Queries() != snap.Queries()+2 {
		t.Fatalf("queries = %d, want %d", after.Queries(), snap.Queries()+2)
	}
	if after.Interner() != snap.Interner() {
		t.Fatal("republish switched interners")
	}
	journal := fragment.Relation("journal")
	id := snap.Lookup(journal)
	if id == fragment.NoID {
		t.Fatal("journal missing from loaded snapshot")
	}
	if after.Lookup(journal) != id {
		t.Fatalf("fragment ID moved across republish: %d vs %d", after.Lookup(journal), id)
	}
	if got, want := after.OccurrencesID(id), snap.OccurrencesID(id)+2; got != want {
		t.Fatalf("nv(journal) = %d after append, want %d", got, want)
	}
}
