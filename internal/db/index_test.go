package db_test

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"templar/internal/datasets"
	"templar/internal/db"
	"templar/internal/schema"
	"templar/internal/stem"
)

// probeOps are the operators a numeric probe is tried under: the default
// "", every comparison, LIKE (which never matches a number) and an unknown
// operator (which matches nothing).
var probeOps = []string{"", "=", "!=", "<", "<=", ">", ">=", "LIKE", "~"}

// sortedRelations returns the schema's relations in the probes' order.
func sortedRelations(d *db.Database) []string {
	rels := d.Schema().Relations()
	sort.Strings(rels)
	return rels
}

// referenceTextAttrs is FindTextAttrs computed by scanning rows
// (Table.MatchAll) instead of probing the value index.
func referenceTextAttrs(d *db.Database, keyword string) []db.TextMatch {
	var stems []string
	for _, tok := range db.Tokenize(keyword) {
		stems = append(stems, stem.Stem(tok))
	}
	var out []db.TextMatch
	for _, rn := range sortedRelations(d) {
		rel, _ := d.Schema().Relation(rn)
		for _, a := range rel.Attributes {
			if a.Type != schema.Text {
				continue
			}
			var query []string
			for _, s := range stems {
				if s != stem.Stem(rn) && s != stem.Stem(a.Name) {
					query = append(query, s)
				}
			}
			if vals := d.Table(rn).MatchAll(a.Name, query); len(vals) > 0 {
				out = append(out, db.TextMatch{Relation: rn, Attribute: a.Name, Values: vals})
			}
		}
	}
	return out
}

// referenceNumericAttrs is FindNumericAttrs computed by scanning rows
// (PredicateNonEmpty) instead of probing the value index.
func referenceNumericAttrs(d *db.Database, n float64, op string) []db.NumericMatch {
	if op == "" {
		op = "="
	}
	var out []db.NumericMatch
	for _, rn := range sortedRelations(d) {
		rel, _ := d.Schema().Relation(rn)
		for _, a := range rel.Attributes {
			if a.Type == schema.Number && !d.IsKeyColumn(rn, a.Name) && d.PredicateNonEmpty(rn, a.Name, op, db.Num(n)) {
				out = append(out, db.NumericMatch{Relation: rn, Attribute: a.Name})
			}
		}
	}
	return out
}

// keywordNumber is the first numeric token of a keyword, the value the
// Keyword Mapper probes numeric attributes with.
func keywordNumber(s string) (float64, bool) {
	for _, tok := range strings.Fields(s) {
		if n, err := strconv.ParseFloat(strings.Trim(tok, ",.;:!?"), 64); err == nil {
			return n, true
		}
	}
	return 0, false
}

// checkText requires the index's full-text probe to equal the row scan,
// order included.
func checkText(t *testing.T, d *db.Database, keyword string) {
	t.Helper()
	if got, want := d.FindTextAttrs(keyword), referenceTextAttrs(d, keyword); !reflect.DeepEqual(got, want) {
		t.Fatalf("text probe %q:\nindex: %v\nscan:  %v", keyword, got, want)
	}
}

// checkNumeric requires the index's numeric probe to equal the row scan,
// order included.
func checkNumeric(t *testing.T, d *db.Database, n float64, op string) {
	t.Helper()
	if got, want := d.FindNumericAttrs(n, op), referenceNumericAttrs(d, n, op); !reflect.DeepEqual(got, want) {
		t.Fatalf("numeric probe %q %v:\nindex: %v\nscan:  %v", op, n, got, want)
	}
}

// TestValueIndexMatchesRowScan pins candidate retrieval (Algorithm 2) to
// the row scans it answers for: for every keyword of every task of every
// bundled dataset, the value index's full-text probe equals the MatchAll
// scan, and for every numeric keyword n its numeric probe at n−1, n and n+1
// equals the PredicateNonEmpty scan under each operator. Equality includes
// order, which fixes the enumeration order of configurations and therefore
// every tie break downstream.
func TestValueIndexMatchesRowScan(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			seen := map[string]bool{}
			numeric := 0
			for _, task := range ds.Tasks {
				for _, kw := range task.Keywords {
					if seen[kw.Text] {
						continue
					}
					seen[kw.Text] = true
					checkText(t, ds.DB, kw.Text)
					n, ok := keywordNumber(kw.Text)
					if !ok {
						continue
					}
					numeric++
					for _, v := range []float64{n - 1, n, n + 1} {
						for _, op := range probeOps {
							checkNumeric(t, ds.DB, v, op)
						}
					}
				}
			}
			if numeric == 0 {
				t.Fatal("no numeric keywords probed")
			}
		})
	}
}

// FuzzValueIndex drives the same oracle with arbitrary keyword bytes and
// an arbitrary numeric probe: on every bundled dataset, both index probes
// must equal the row scans.
func FuzzValueIndex(f *testing.F) {
	f.Add("Databases", 2000.0, byte(1))
	f.Add("journal TKDE", 1998.0, byte(4))
	f.Add("movie Saving Private Ryan", math.NaN(), byte(2))
	f.Add("Scottsdale 4.5", math.Inf(1), byte(6))
	dbs := datasets.All()
	f.Fuzz(func(t *testing.T, keyword string, n float64, op byte) {
		for _, ds := range dbs {
			checkText(t, ds.DB, keyword)
			checkNumeric(t, ds.DB, n, probeOps[int(op)%len(probeOps)])
		}
	})
}

// TestValueIndexConcurrentFirstProbe: concurrent first probes build the
// index once and all answer like the row scan.
func TestValueIndexConcurrentFirstProbe(t *testing.T) {
	d := datasets.MAS().DB
	want := referenceTextAttrs(d, "Databases")
	var wg sync.WaitGroup
	got := make([][]db.TextMatch, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = d.FindTextAttrs("Databases")
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("probe %d: %v, want %v", i, got[i], want)
		}
	}
}

// TestInsertAfterIndexFails: the first probe (or BuildIndex) builds the
// value index and makes the database read-only, so an answer is never
// served from stale rows.
func TestInsertAfterIndexFails(t *testing.T) {
	for name, build := range map[string]func(*db.Database){
		"text probe":    func(d *db.Database) { d.FindTextAttrs("Databases") },
		"numeric probe": func(d *db.Database) { d.FindNumericAttrs(0, ">") },
		"BuildIndex":    (*db.Database).BuildIndex,
	} {
		t.Run(name, func(t *testing.T) {
			d := datasets.MAS().DB
			journal := d.Table("journal")
			row := journal.Rows()[0]
			if err := d.Insert("journal", row); err != nil {
				t.Fatalf("insert before the index is built: %v", err)
			}
			before := journal.Len()
			build(d)
			if err := d.Insert("journal", row); !errors.Is(err, db.ErrIndexed) {
				t.Fatalf("Database.Insert after the index is built = %v, want ErrIndexed", err)
			}
			if err := journal.Insert(row); !errors.Is(err, db.ErrIndexed) {
				t.Fatalf("Table.Insert after the index is built = %v, want ErrIndexed", err)
			}
			if journal.Len() != before {
				t.Fatalf("rejected inserts changed the table: %d rows, want %d", journal.Len(), before)
			}
		})
	}
}
