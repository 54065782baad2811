package keyword_test

import (
	"reflect"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/db"
	"templar/internal/keyword"
)

// referenceSelectAttrs is the SELECT-context candidate scan the index
// replaces: every non-key attribute, in schema declaration order.
func referenceSelectAttrs(d *db.Database) []string {
	var out []string
	for _, q := range d.Schema().QualifiedAttributes() {
		rel, attr, _ := strings.Cut(q, ".")
		if !d.IsKeyColumn(rel, attr) {
			out = append(out, q)
		}
	}
	return out
}

// TestCandidateIndexMatchesReferenceScans pins candidate retrieval
// (Algorithm 2) to the database scans it was derived from: for every
// keyword of every task of every bundled dataset, the index's full-text
// probe equals db.FindTextAttrs, and for every numeric keyword its numeric
// probe equals db.FindNumericAttrs under each comparison operator, at and
// around the keyword's value. The FROM and SELECT candidate lists equal
// the schema scans. Equality includes order, which fixes the enumeration
// order of configurations and therefore every tie break downstream.
func TestCandidateIndexMatchesReferenceScans(t *testing.T) {
	ops := []string{"", "=", "!=", "<", "<=", ">", ">=", "LIKE"}
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			ci := keyword.BuildCandidateIndex(ds.DB)
			if got, want := ci.FromRels(), ds.DB.Schema().Relations(); !reflect.DeepEqual(got, want) {
				t.Fatalf("FROM candidates = %v, want %v", got, want)
			}
			if got, want := ci.SelectAttrs(), referenceSelectAttrs(ds.DB); !reflect.DeepEqual(got, want) {
				t.Fatalf("SELECT candidates = %v, want %v", got, want)
			}
			seen := map[string]bool{}
			numeric := 0
			for _, task := range ds.Tasks {
				for _, kw := range task.Keywords {
					if seen[kw.Text] {
						continue
					}
					seen[kw.Text] = true
					if got, want := ci.FindTextAttrs(kw.Text), ds.DB.FindTextAttrs(kw.Text); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: text probe %q:\nindex: %v\nscan:  %v", task.ID, kw.Text, got, want)
					}
					n, ok := keyword.ExtractNumber(kw.Text)
					if !ok {
						continue
					}
					numeric++
					for _, v := range []float64{n - 1, n, n + 1} {
						for _, op := range ops {
							if got, want := ci.FindNumericAttrs(v, op), ds.DB.FindNumericAttrs(v, op); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: numeric probe %v %q %v:\nindex: %v\nscan:  %v", task.ID, kw.Text, op, v, got, want)
							}
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
