package keyword

// Test-only handles onto the Mapper's candidate lists for the external
// keyword_test package, which can import internal/datasets (an internal
// test cannot: datasets imports keyword).

// FromRels is the FROM-context candidate list.
func (m *Mapper) FromRels() []string { return m.fromRels }

// SelectAttrs is the SELECT-context candidate list as "rel.attr" strings.
func (m *Mapper) SelectAttrs() []string {
	out := make([]string, len(m.selectAttrs))
	for i, ra := range m.selectAttrs {
		out[i] = ra.rel + "." + ra.attr
	}
	return out
}
