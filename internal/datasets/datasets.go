// Package datasets builds the three evaluation benchmarks of the paper's
// §VII-A4 — Microsoft Academic Search (MAS), Yelp and IMDB — as synthetic
// equivalents with the exact Table II schema shape (relations, attributes,
// FK-PK edges) and benchmark sizes (194/127/128 NLQ-SQL tasks).
//
// The original benchmarks' hand-annotated NLQ-SQL pairs and multi-gigabyte
// data dumps are not redistributable; the generators here reproduce the
// *phenomena* the paper measures instead: ambiguous keyword vocabulary
// (papers ≈ journal ≈ publication), intended join paths that lose to
// shorter ones under uniform weights, equal-length join-path ties, numeric
// predicate ambiguity, aggregation, self-joins, and parser-hazard NLQs for
// the NaLIR error model (§VII-C). docs/ARCHITECTURE.md ("Evaluation
// datasets and design ablations") records the substitution.
package datasets

import (
	"fmt"
	"strings"

	"templar/internal/db"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/schema"
	"templar/internal/sqlparse"
	"templar/internal/xrand"
)

// Task is one benchmark item: a natural-language query already parsed into
// keywords with metadata (the NLIDB front-end's output, hand-parsed in the
// paper's Pipeline evaluation), the gold SQL translation, and the gold
// keyword→fragment mappings used for KW accuracy.
type Task struct {
	// ID identifies the task within its dataset ("mas/papersInDomain/07").
	ID string
	// NLQ is the original natural-language question.
	NLQ string
	// Keywords are the parsed keywords with metadata.
	Keywords []keyword.Keyword
	// Gold is the gold SQL (aliased text form).
	Gold string
	// GoldCanonical is the alias-free canonical form used for FQ scoring.
	GoldCanonical string
	// GoldFragments holds, per keyword, the gold query fragment at Full
	// obscurity. Relation-context keywords (none in these workloads) would
	// carry a FROM fragment.
	GoldFragments []fragment.Fragment
	// Hazard marks NLQs whose structure trips NaLIR's parser (§VII-C):
	// explicit relation references, aggregation, nested intent.
	Hazard bool
	// Template names the generating template, for per-template diagnostics.
	Template string
}

// Dataset bundles a populated database with its benchmark workload.
type Dataset struct {
	// Name is "MAS", "Yelp" or "IMDB".
	Name string
	// SizeGB is the size the paper reports for the original dump
	// (Table II); retained for table rendering only.
	SizeGB float64
	// DB is the populated in-memory database.
	DB *db.Database
	// Tasks is the benchmark workload.
	Tasks []Task
}

// Stats reports the Table II row for this dataset.
func (d *Dataset) Stats() TableIIRow {
	s := d.DB.Schema().Stats()
	return TableIIRow{
		Dataset:     d.Name,
		SizeGB:      d.SizeGB,
		Relations:   s.Relations,
		Attributes:  s.Attributes,
		ForeignKeys: s.ForeignKeys,
		Queries:     len(d.Tasks),
	}
}

// TableIIRow is one row of the paper's Table II.
type TableIIRow struct {
	Dataset     string
	SizeGB      float64
	Relations   int
	Attributes  int
	ForeignKeys int
	Queries     int
}

// All returns the three benchmarks in the paper's order.
func All() []*Dataset {
	return []*Dataset{MAS(), Yelp(), IMDB()}
}

// ByName builds the benchmark with the given name (case-insensitive),
// reporting false for names that aren't bundled. It is the one dataset
// resolution path shared by the CLI commands and the serving loader.
func ByName(name string) (*Dataset, bool) {
	for _, d := range All() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Deterministic PRNG (the shared xorshift64* in internal/xrand), so
// datasets are identical on every run and across platforms. The local
// wrapper keeps the generators' call sites terse.

type rng struct{ x *xrand.Rand }

func newRNG(seed uint64) *rng { return &rng{x: xrand.New(seed)} }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return r.x.Intn(n) }

// rangeInt returns a value in [lo, hi].
func (r *rng) rangeInt(lo, hi int) int { return r.x.RangeInt(lo, hi) }

// ---------------------------------------------------------------------------
// Schema construction helpers.

type schemaBuilder struct {
	g   *schema.Graph
	err error
}

func newSchemaBuilder() *schemaBuilder { return &schemaBuilder{g: schema.NewGraph()} }

func (b *schemaBuilder) rel(name string, attrs ...schema.Attribute) {
	if b.err != nil {
		return
	}
	b.err = b.g.AddRelation(schema.Relation{Name: name, Attributes: attrs})
}

func (b *schemaBuilder) fk(fromRel, fromAttr, toRel, toAttr string) {
	if b.err != nil {
		return
	}
	b.err = b.g.AddForeignKey(schema.ForeignKey{FromRel: fromRel, FromAttr: fromAttr, ToRel: toRel, ToAttr: toAttr})
}

func (b *schemaBuilder) build() *schema.Graph {
	if b.err != nil {
		panic("datasets: schema construction: " + b.err.Error())
	}
	if err := b.g.Validate(); err != nil {
		panic("datasets: schema validation: " + err.Error())
	}
	return b.g
}

func pk(name string) schema.Attribute {
	return schema.Attribute{Name: name, Type: schema.Number, PrimaryKey: true}
}

func num(name string) schema.Attribute {
	return schema.Attribute{Name: name, Type: schema.Number}
}

func text(name string) schema.Attribute {
	return schema.Attribute{Name: name, Type: schema.Text}
}

// ---------------------------------------------------------------------------
// Task construction helpers.

// taskBuilder accumulates tasks and finalizes gold canonical forms.
type taskBuilder struct {
	dataset string
	tasks   []Task
	counts  map[string]int
}

func newTaskBuilder(dataset string) *taskBuilder {
	return &taskBuilder{dataset: dataset, counts: make(map[string]int)}
}

// add registers a task, parsing and canonicalizing the gold SQL. It panics
// on malformed gold SQL — the generators are static code, so this is a
// programming error, not input error.
func (tb *taskBuilder) add(template, nlq string, kws []keyword.Keyword, goldSQL string, goldFrags []fragment.Fragment, hazard bool) {
	if len(kws) != len(goldFrags) {
		panic(fmt.Sprintf("datasets: %s/%s: %d keywords vs %d gold fragments", tb.dataset, template, len(kws), len(goldFrags)))
	}
	q, err := sqlparse.Parse(goldSQL)
	if err != nil {
		panic(fmt.Sprintf("datasets: %s/%s: bad gold SQL %q: %v", tb.dataset, template, goldSQL, err))
	}
	if err := q.Resolve(nil); err != nil {
		panic(fmt.Sprintf("datasets: %s/%s: gold SQL resolve: %v", tb.dataset, template, err))
	}
	n := tb.counts[template]
	tb.counts[template] = n + 1
	tb.tasks = append(tb.tasks, Task{
		ID:            fmt.Sprintf("%s/%s/%02d", tb.dataset, template, n),
		NLQ:           nlq,
		Keywords:      kws,
		Gold:          goldSQL,
		GoldCanonical: q.Canonical(),
		GoldFragments: goldFrags,
		Hazard:        hazard,
		Template:      template,
	})
}

// kw builds a keyword with WHERE context (the default for value keywords).
func kwWhere(text string) keyword.Keyword {
	return keyword.Keyword{Text: text, Meta: keyword.Metadata{Context: fragment.Where}}
}

// kwWhereOp builds a numeric keyword with a comparison operator.
func kwWhereOp(text, op string) keyword.Keyword {
	return keyword.Keyword{Text: text, Meta: keyword.Metadata{Context: fragment.Where, Op: op}}
}

// kwSelect builds a SELECT-context keyword.
func kwSelect(text string) keyword.Keyword {
	return keyword.Keyword{Text: text, Meta: keyword.Metadata{Context: fragment.Select}}
}

// kwSelectAgg builds a SELECT-context keyword with an aggregate.
func kwSelectAgg(text, agg string) keyword.Keyword {
	return keyword.Keyword{Text: text, Meta: keyword.Metadata{Context: fragment.Select, Aggs: []string{agg}}}
}

// Gold fragment shorthands.

func fragAttr(qualified string) fragment.Fragment { return fragment.Attr(qualified, "") }

func fragAgg(qualified, agg string) fragment.Fragment { return fragment.Attr(qualified, agg) }

func fragPredStr(qualified, op, val string) fragment.Fragment {
	return fragment.Pred(qualified, op, sqlparse.Value{Kind: sqlparse.StringVal, S: val}, fragment.Full)
}

func fragPredNum(qualified, op string, val float64) fragment.Fragment {
	return fragment.Pred(qualified, op, sqlparse.Value{Kind: sqlparse.NumberVal, N: val}, fragment.Full)
}

// sqlQuote escapes single quotes for embedding a value in gold SQL text.
func sqlQuote(v string) string {
	out := make([]byte, 0, len(v)+2)
	for i := 0; i < len(v); i++ {
		if v[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, v[i])
	}
	return string(out)
}
