// Package templar is the public facade of the Templar system (paper §III-D):
// a log-augmentation layer that existing pipeline NLIDBs call on two fronts,
// keyword mapping (MAPKEYWORDS) and join path inference (INFERJOINS). The
// two calls are independent; the NLIDB owns NLQ parsing and final SQL
// construction.
//
// The query surface is context-first: every call takes a context.Context
// (a canceled request aborts configuration enumeration and join path
// search mid-flight, not just at dispatch) and an optional *CallOptions
// with per-request knobs. Typical use:
//
//	entries, _ := sqlparse.ParseLog(logText)
//	g, _ := qfg.Build(entries, fragment.NoConstOp)
//	t := templar.New(database, model, g, templar.Options{})
//	configs, _ := t.MapKeywords(ctx, keywords, nil)
//	paths, _ := t.InferJoins(ctx, []string{"publication", "domain"}, &templar.CallOptions{TopK: 3})
//
// A serving layer that keeps folding user queries back into its log wraps
// the graph in a qfg.Live and uses NewLive instead: every append republishes
// an immutable snapshot, and the System swaps its scoring/weighting engine
// behind an atomic pointer without ever blocking readers.
package templar

import (
	"context"
	"sync"
	"sync/atomic"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
)

// Options configures a Templar instance.
type Options struct {
	// Keyword configures the Keyword Mapper (κ, λ, obscurity, …).
	Keyword keyword.Options
	// LogJoin enables log-driven join path weights (Table IV's toggle).
	// When false, join inference uses uniform weights (shortest path),
	// while keyword mapping still uses the QFG.
	LogJoin bool
}

// Engine is one immutable compiled view a System serves from: the QFG
// snapshot it was derived from, the join generator whose edge weights were
// baked from that snapshot, and the translator over a mapper pinned to
// that same snapshot. Engines are swapped whole behind an atomic pointer,
// so a Translate call scores configurations and weighs join edges against
// one mutually consistent log state. A caller that answers several
// queries as one unit (a batch request) resolves System.Engine once and
// runs every query on it, so the whole unit sees one log state too.
type Engine struct {
	snap       *qfg.Snapshot // nil when the system has no QFG
	joins      *joinpath.Generator
	translator *nlidb.System
}

// System is a Templar instance bound to one database, similarity model and
// query fragment graph.
//
// A System is safe for concurrent use by multiple goroutines: the keyword
// mapper builds the database's value index at construction and ranks against
// an immutable interned-ID QFG snapshot, the join generator clones its
// precomputed adjacency graph per call, and the current engine is read with
// one atomic load. With NewLive, log appends republish a fresh snapshot and
// the engine is rebuilt copy-on-write — in-flight readers keep the engine
// they loaded and are never blocked. The database is read-only once the
// System is constructed: a later Insert fails with db.ErrIndexed.
type System struct {
	database *db.Database
	model    *embedding.Model
	opts     Options
	mapper   *keyword.Mapper
	live     *qfg.Live // nil when the log is frozen
	// cur is the engine serving requests; rebuildMu serializes the
	// copy-on-write rebuild after a live republish (readers that lose the
	// TryLock race serve the previous engine instead of blocking).
	cur       atomic.Pointer[Engine]
	rebuildMu sync.Mutex
}

// New builds a Templar instance over a frozen query log: graph is
// compiled once into an immutable snapshot and served through
// NewFromSnapshot. graph may be nil, which degrades both calls to their
// log-free baselines (useful for ablations).
func New(database *db.Database, model *embedding.Model, graph *qfg.Graph, opts Options) *System {
	var snap *qfg.Snapshot
	if graph != nil {
		snap = graph.Snapshot(nil)
	}
	return NewFromSnapshot(database, model, snap, opts)
}

// NewFromSnapshot builds a Templar instance directly over a precompiled,
// frozen QFG snapshot — the cold-start path for archives loaded from
// internal/store: no log re-mine, no graph build, the engine serves from
// the loaded arrays as-is. Log appends are disabled (Live() == nil); a
// serving layer that wants to keep appending wraps the archive with
// qfg.NewLiveFromSnapshot and uses NewLive instead. Passing a nil snapshot
// builds the log-free baseline.
func NewFromSnapshot(database *db.Database, model *embedding.Model, snap *qfg.Snapshot, opts Options) *System {
	s := &System{database: database, model: model, opts: opts}
	s.mapper = keyword.NewSnapshotMapper(database, model, snap, opts.Keyword)
	s.cur.Store(s.buildEngine(snap))
	return s
}

// NewLive builds a Templar instance over a live, growing query log: the
// mapper ranks against whatever snapshot the Live graph currently
// publishes, and the join generator (whose log-driven weights are baked at
// build time) is rebuilt copy-on-write whenever a republish is observed.
func NewLive(database *db.Database, model *embedding.Model, live *qfg.Live, opts Options) *System {
	s := &System{database: database, model: model, opts: opts, live: live}
	s.mapper = keyword.NewSnapshotMapper(database, model, live, opts.Keyword)
	s.cur.Store(s.buildEngine(live.CurrentSnapshot()))
	return s
}

// buildEngine compiles the per-snapshot serving state. The translator's
// mapper is pinned to the engine's snapshot (sharing the candidate lists
// and similarity cache with the System's base mapper), so one Translate
// call never mixes configuration scores from a newer republish with join
// weights from an older one. A nil snapshot is the log-free baseline.
func (s *System) buildEngine(snap *qfg.Snapshot) *Engine {
	var w joinpath.WeightFunc
	if s.opts.LogJoin && snap != nil {
		w = joinpath.LogWeights(snap)
	}
	joins := joinpath.NewGenerator(s.database.Schema(), w)
	mapper := s.mapper
	if snap != nil {
		mapper = mapper.WithSource(snap)
	}
	return &Engine{
		snap:       snap,
		joins:      joins,
		translator: nlidb.NewFromParts("Templar", mapper, joins, nlidb.Config{}),
	}
}

// Engine returns the current serving engine, rebuilding it first when the
// live graph has republished a newer snapshot. Readers never block: if
// another goroutine already holds the rebuild lock, the previous engine —
// a complete, consistent view of an older log state — serves the request.
func (s *System) Engine() *Engine {
	e := s.cur.Load()
	if s.live == nil {
		return e
	}
	snap := s.live.CurrentSnapshot()
	if e.snap == snap {
		return e
	}
	if !s.rebuildMu.TryLock() {
		return e
	}
	defer s.rebuildMu.Unlock()
	snap = s.live.CurrentSnapshot()
	if e = s.cur.Load(); e.snap == snap {
		return e
	}
	e = s.buildEngine(snap)
	s.cur.Store(e)
	return e
}

// Database returns the bound database.
func (s *System) Database() *db.Database { return s.database }

// Mapper returns the shared keyword mapper: index- and cache-backed, and
// ranking against the live log's latest snapshot, the frozen snapshot, or
// no log at all (the baseline).
func (s *System) Mapper() *keyword.Mapper { return s.mapper }

// Joins returns the current join path generator. With a live log the
// returned generator is a point-in-time view; prefer InferJoins, which
// picks up republished weights per call.
func (s *System) Joins() *joinpath.Generator { return s.Engine().joins }

// Live returns the live query log behind the system, or nil when the log
// is frozen. Serving layers append user queries through it.
func (s *System) Live() *qfg.Live { return s.live }

// Snapshot returns the QFG snapshot the current engine serves from (nil
// for a log-free baseline), for diagnostics endpoints.
func (s *System) Snapshot() *qfg.Snapshot { return s.Engine().snap }

// CallOptions are per-request knobs for the query surface. A nil
// *CallOptions means "engine defaults" everywhere; the zero value of any
// field leaves that default in place. One options struct serves all three
// calls — each reads only the fields that apply to it.
type CallOptions struct {
	// TopK caps what the call returns: configurations for MapKeywords
	// (0 = all), join paths for InferJoins (0 = 1).
	TopK int
	// MaxCandidates overrides κ, the candidate mappings kept per keyword
	// after pruning.
	MaxCandidates int
	// MaxConfigurations caps the keyword-mapping configuration
	// enumeration.
	MaxConfigurations int
	// TopConfigs bounds how many configurations Translate tries for SQL
	// construction.
	TopConfigs int
	// TopPaths bounds how many join paths Translate considers per
	// configuration.
	TopPaths int
	// Obscurity asserts the fragment obscurity level the caller expects;
	// a level the engine's log was not mined at is a
	// *keyword.ObscurityMismatchError.
	Obscurity *fragment.Obscurity
}

// keywordOpts projects the mapper-facing fields (nil-safe).
func (o *CallOptions) keywordOpts() keyword.CallOptions {
	if o == nil {
		return keyword.CallOptions{}
	}
	return keyword.CallOptions{K: o.MaxCandidates, MaxConfigurations: o.MaxConfigurations, Obscurity: o.Obscurity}
}

// nlidbOpts projects the translator-facing fields (nil-safe).
func (o *CallOptions) nlidbOpts() nlidb.CallOptions {
	if o == nil {
		return nlidb.CallOptions{}
	}
	return nlidb.CallOptions{Keyword: o.keywordOpts(), TopConfigs: o.TopConfigs, TopPaths: o.TopPaths}
}

// MapKeywords executes MAPKEYWORDS (Φ = MAPKEYWORDS(D, S, M)): it returns
// keyword-mapping configurations ranked from most to least likely,
// trimmed to opts.TopK when set. The trim is pushed into the mapper, which
// then runs a bounded top-k selection over the configuration enumeration
// instead of materializing and sorting the whole cartesian product; the
// result is identical to sorting everything and slicing. ctx cancellation
// aborts the enumeration mid-flight.
func (s *System) MapKeywords(ctx context.Context, keywords []keyword.Keyword, opts *CallOptions) ([]keyword.Configuration, error) {
	kco := opts.keywordOpts()
	if opts != nil {
		kco.TopK = opts.TopK
	}
	configs, err := s.mapper.MapKeywordsCtx(ctx, keywords, kco)
	if err != nil {
		return nil, err
	}
	if opts != nil && opts.TopK > 0 && len(configs) > opts.TopK {
		configs = configs[:opts.TopK]
	}
	return configs, nil
}

// InferJoins executes INFERJOINS (J = INFERJOINS(Gs, BD)): given the bag of
// relations known to be part of the SQL query (duplicates trigger self-join
// forking), it returns up to opts.TopK join paths (default 1) ranked from
// most to least likely. ctx cancellation aborts the Steiner search
// mid-flight.
func (s *System) InferJoins(ctx context.Context, relationBag []string, opts *CallOptions) ([]joinpath.Path, error) {
	topK := 1
	if opts != nil && opts.TopK > 0 {
		topK = opts.TopK
	}
	return s.Engine().joins.InferCtx(ctx, relationBag, topK)
}

// Translate runs the full NLQ→SQL pipeline over the shared mapper and join
// generator: MAPKEYWORDS → INFERJOINS per configuration → SQL construction
// → ranking. It is the one-call front the serving layer exposes; NLIDBs
// that own their own SQL construction keep using MapKeywords + InferJoins.
// ctx cancellation aborts enumeration and path search mid-pipeline. Each
// call resolves the current engine; see Engine.Translate to run several
// queries against one.
func (s *System) Translate(ctx context.Context, kws []keyword.Keyword, opts *CallOptions) (*nlidb.Translation, error) {
	return s.Engine().Translate(ctx, kws, opts)
}

// Translate is System.Translate against this engine's log state.
func (e *Engine) Translate(ctx context.Context, kws []keyword.Keyword, opts *CallOptions) (*nlidb.Translation, error) {
	return e.translator.TranslateCtx(ctx, "", false, kws, opts.nlidbOpts())
}
