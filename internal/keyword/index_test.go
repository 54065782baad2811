package keyword_test

import (
	"reflect"
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/keyword"
)

// referenceSelectAttrs is the SELECT-context candidate scan the Mapper's
// list replaces: every non-key attribute, in schema declaration order.
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

// TestCandidateIndexMatchesReferenceScans pins the FROM and SELECT
// candidate lists a Mapper builds at construction to the schema scans they
// replace, on every bundled dataset. Equality includes order, which fixes
// the enumeration order of configurations and therefore every tie break
// downstream. The WHERE-context probes are pinned in internal/db
// (TestValueIndexMatchesRowScan, FuzzValueIndex).
func TestCandidateIndexMatchesReferenceScans(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			m := keyword.NewSnapshotMapper(ds.DB, embedding.New(), nil, keyword.Options{})
			if got, want := m.FromRels(), ds.DB.Schema().Relations(); !reflect.DeepEqual(got, want) {
				t.Fatalf("FROM candidates = %v, want %v", got, want)
			}
			if got, want := m.SelectAttrs(), referenceSelectAttrs(ds.DB); !reflect.DeepEqual(got, want) {
				t.Fatalf("SELECT candidates = %v, want %v", got, want)
			}
		})
	}
}
