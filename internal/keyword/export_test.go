package keyword

import "templar/internal/db"

// Test-only handles onto the candidate index for the external keyword_test
// package, which can import internal/datasets (an internal test cannot:
// datasets imports keyword).

// CandidateIndex is the Mapper's precomputed retrieval index.
type CandidateIndex = candidateIndex

// BuildCandidateIndex builds the index a Mapper over database would use.
func BuildCandidateIndex(database *db.Database) *CandidateIndex {
	return buildCandidateIndex(database)
}

// ExtractNumber exposes the numeric-keyword probe of Algorithm 2.
func ExtractNumber(s string) (float64, bool) { return extractNumber(s) }

// FromRels is the FROM-context candidate list.
func (ci *candidateIndex) FromRels() []string { return ci.fromRels }

// SelectAttrs is the SELECT-context candidate list as "rel.attr" strings.
func (ci *candidateIndex) SelectAttrs() []string {
	out := make([]string, len(ci.selectAttrs))
	for i, ra := range ci.selectAttrs {
		out[i] = ra.rel + "." + ra.attr
	}
	return out
}

// FindTextAttrs is the indexed full-text probe.
func (ci *candidateIndex) FindTextAttrs(keyword string) []db.TextMatch {
	return ci.findTextAttrs(keyword)
}

// FindNumericAttrs is the indexed numeric-predicate probe.
func (ci *candidateIndex) FindNumericAttrs(n float64, op string) []db.NumericMatch {
	return ci.findNumericAttrs(n, op)
}
