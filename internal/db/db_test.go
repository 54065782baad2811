package db

import (
	"math"
	"testing"

	"templar/internal/schema"
)

// academicDB builds a small MAS-like database for testing.
func academicDB(t *testing.T) *Database {
	t.Helper()
	g := schema.NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddRelation(schema.Relation{Name: "journal", Attributes: []schema.Attribute{
		{Name: "jid", Type: schema.Number, PrimaryKey: true},
		{Name: "name", Type: schema.Text},
	}}))
	must(g.AddRelation(schema.Relation{Name: "publication", Attributes: []schema.Attribute{
		{Name: "pid", Type: schema.Number, PrimaryKey: true},
		{Name: "title", Type: schema.Text},
		{Name: "year", Type: schema.Number},
		{Name: "citations", Type: schema.Number},
		{Name: "jid", Type: schema.Number},
	}}))
	must(g.AddForeignKey(schema.ForeignKey{FromRel: "publication", FromAttr: "jid", ToRel: "journal", ToAttr: "jid"}))
	d := New(g)
	d.MustInsert("journal", []Value{Num(1), Str("TKDE")})
	d.MustInsert("journal", []Value{Num(2), Str("TMC")})
	d.MustInsert("publication", []Value{Num(10), Str("Efficient Query Processing in Relational Databases"), Num(2001), Num(35), Num(1)})
	d.MustInsert("publication", []Value{Num(11), Str("Mobile Computing Surveys"), Num(1998), Num(12), Num(2)})
	d.MustInsert("publication", []Value{Num(12), Str("Keyword Search over Databases"), Num(2005), Num(70), Num(1)})
	return d
}

func TestInsertTypeChecking(t *testing.T) {
	d := academicDB(t)
	if err := d.Insert("journal", []Value{Str("bad"), Str("x")}); err == nil {
		t.Fatal("expected type error for string in numeric column")
	}
	if err := d.Insert("journal", []Value{Num(3)}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := d.Insert("nope", []Value{Num(3)}); err == nil {
		t.Fatal("expected unknown relation error")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Saving Private Ryan (1998)")
	want := []string{"saving", "private", "ryan", "1998"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v", got)
		}
	}
	if len(Tokenize("")) != 0 || len(Tokenize("!!!")) != 0 {
		t.Fatal("empty tokenization")
	}
}

func TestFindTextAttrsBooleanMode(t *testing.T) {
	d := academicDB(t)
	// "relational databases" stems to [relat, databas]; only one title
	// contains both prefixes.
	matches := d.FindTextAttrs("relational databases")
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	m := matches[0]
	if m.Qualified() != "publication.title" || len(m.Values) != 1 {
		t.Fatalf("match = %+v", m)
	}
	// Single token matching multiple rows in the same attribute.
	matches = d.FindTextAttrs("databases")
	if len(matches) != 1 || len(matches[0].Values) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestFindTextAttrsDropsSchemaNameTokens(t *testing.T) {
	d := academicDB(t)
	// The token "journal" matches the relation name and is dropped when
	// searching journal.name; "TKDE" alone then matches.
	matches := d.FindTextAttrs("journal TKDE")
	found := false
	for _, m := range matches {
		if m.Qualified() == "journal.name" {
			found = true
			if len(m.Values) != 1 || m.Values[0] != "TKDE" {
				t.Fatalf("values = %v", m.Values)
			}
		}
	}
	if !found {
		t.Fatalf("journal.name not matched: %v", matches)
	}
}

func TestFindTextAttrsAllTokensSchemaNames(t *testing.T) {
	d := academicDB(t)
	// If every token matches the attribute/relation name the search is
	// skipped for that attribute (would otherwise match everything).
	for _, m := range d.FindTextAttrs("journal name") {
		if m.Qualified() == "journal.name" {
			t.Fatalf("empty-query attribute should be skipped, got %v", m)
		}
	}
}

func TestFindTextAttrsNoMatch(t *testing.T) {
	d := academicDB(t)
	if got := d.FindTextAttrs("zebra unicorn"); got != nil {
		t.Fatalf("expected no matches, got %v", got)
	}
	if got := d.FindTextAttrs(""); got != nil {
		t.Fatalf("expected no matches for empty keyword, got %v", got)
	}
}

func TestFindNumericAttrs(t *testing.T) {
	d := academicDB(t)
	// year > 2000 matches publication.year (2001, 2005) but also
	// citations? 35 and 70 are > 2000? No. So only year.
	got := d.FindNumericAttrs(2000, ">")
	if len(got) != 1 || got[0].Qualified() != "publication.year" {
		t.Fatalf("FindNumericAttrs = %v", got)
	}
	// = 70 matches only citations (no year equals 70).
	got = d.FindNumericAttrs(70, "=")
	if len(got) != 1 || got[0].Qualified() != "publication.citations" {
		t.Fatalf("FindNumericAttrs = %v", got)
	}
	// > 10 matches year and citations, but never id columns.
	got = d.FindNumericAttrs(10, ">")
	if len(got) != 2 {
		t.Fatalf("FindNumericAttrs = %v", got)
	}
	for _, m := range got {
		if m.Attribute == "jid" || m.Attribute == "pid" {
			t.Fatalf("key column leaked: %v", m)
		}
	}
}

func TestFindNumericAttrsDefaultOp(t *testing.T) {
	d := academicDB(t)
	got := d.FindNumericAttrs(1998, "")
	if len(got) != 1 || got[0].Qualified() != "publication.year" {
		t.Fatalf("FindNumericAttrs eq = %v", got)
	}
}

func TestPredicateNonEmpty(t *testing.T) {
	d := academicDB(t)
	if !d.PredicateNonEmpty("publication", "year", ">", Num(2000)) {
		t.Fatal("year > 2000 should be non-empty")
	}
	if d.PredicateNonEmpty("publication", "year", ">", Num(2010)) {
		t.Fatal("year > 2010 should be empty")
	}
	if d.PredicateNonEmpty("nope", "year", ">", Num(0)) {
		t.Fatal("unknown relation should be empty")
	}
	if d.PredicateNonEmpty("publication", "nope", ">", Num(0)) {
		t.Fatal("unknown column should be empty")
	}
	if !d.PredicateNonEmpty("journal", "name", "=", Str("TKDE")) {
		t.Fatal("name = TKDE should be non-empty")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a    Value
		op   string
		b    Value
		want bool
	}{
		{Num(1), "<", Num(2), true},
		{Num(2), "<=", Num(2), true},
		{Num(3), ">", Num(2), true},
		{Num(2), ">=", Num(3), false},
		{Num(2), "=", Num(2), true},
		{Num(2), "!=", Num(2), false},
		{Str("a"), "<", Str("b"), true},
		{Str("abc"), "LIKE", Str("abc"), true},
		{Str("abcdef"), "LIKE", Str("abc%"), true},
		{Str("xxabc"), "LIKE", Str("%abc"), true},
		{Str("xxabcyy"), "LIKE", Str("%abc%"), true},
		{Str("xyz"), "LIKE", Str("%abc%"), false},
		{Num(1), "=", Str("1"), false}, // cross-type
		// NaN is unordered (IEEE 754): it equals nothing and differs
		// from everything.
		{Num(math.NaN()), "=", Num(math.NaN()), false},
		{Num(math.NaN()), "!=", Num(1), true},
		{Num(1), "<=", Num(math.NaN()), false},
		{Num(math.NaN()), ">=", Num(1), false},
		{Num(math.NaN()), "<", Num(1), false},
		{Num(1), ">", Num(math.NaN()), false},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.op, c.b)
		if err != nil {
			t.Fatalf("%v %s %v: %v", c.a, c.op, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if _, err := Num(1).Compare("~", Num(2)); err == nil {
		t.Fatal("expected unknown operator error")
	}
}

func TestDistinctValues(t *testing.T) {
	d := academicDB(t)
	vals := d.Table("journal").DistinctValues("name")
	if len(vals) != 2 || vals[0] != "TKDE" || vals[1] != "TMC" {
		t.Fatalf("DistinctValues = %v", vals)
	}
	if d.Table("journal").DistinctValues("jid") != nil {
		t.Fatal("numeric column should have no distinct text values")
	}
}
