package nlidb

import (
	"context"
	"errors"
	"fmt"
	"math"

	"templar/internal/db"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// Translation is the output of one NLQ→SQL translation attempt.
type Translation struct {
	// SQL is the canonical form of the top-ranked query.
	SQL string
	// Rendered is the aliased SQL text as the NLIDB would emit it.
	Rendered string
	// Config is the winning keyword-mapping configuration.
	Config keyword.Configuration
	// Path is the winning join path.
	Path joinpath.Path
	// Score is the combined ranking score of the winner.
	Score float64
	// Tie reports that a *different* SQL query tied for the top score; the
	// evaluation counts tied results as incorrect (§VII-A5).
	Tie bool
}

// System is one NLIDB under evaluation.
type System struct {
	name       string
	mapper     *keyword.Mapper
	joins      *joinpath.Generator
	noise      *ParserNoise
	topConfigs int
	topPaths   int
}

// Name returns the system's display name ("Pipeline", "Pipeline+", …).
func (s *System) Name() string { return s.name }

// Config bundles what varies between the evaluated systems.
type Config struct {
	// Keyword configures κ, λ, obscurity for the mapper.
	Keyword keyword.Options
	// QFG enables log-driven keyword-mapping scores when non-nil.
	QFG *qfg.Graph
	// LogJoin switches join inference to log-driven edge weights.
	LogJoin bool
	// JoinWeights, when non-nil, overrides the join weight function
	// entirely (used by the design ablations, e.g. raw-count weights).
	JoinWeights joinpath.WeightFunc
	// Noise applies a parser corruption model before mapping (NaLIR).
	Noise *ParserNoise
	// TopConfigs bounds how many configurations are tried for SQL
	// construction. Default 8.
	TopConfigs int
	// TopPaths bounds how many join paths are considered per
	// configuration. Default 3.
	TopPaths int
}

// NewSystem assembles a named NLIDB. A non-nil cfg.QFG is compiled once
// into the immutable interned-ID snapshot both consumers read: the keyword
// mapper ranks configurations against it and, with cfg.LogJoin, the join
// weights derive Dice from it at generator build time.
func NewSystem(name string, database *db.Database, model *embedding.Model, cfg Config) *System {
	var snap *qfg.Snapshot
	if cfg.QFG != nil {
		snap = cfg.QFG.Snapshot(nil)
	}
	return NewSystemFromSnapshot(name, database, model, snap, cfg)
}

// NewSystemFromSnapshot assembles a named NLIDB over a precompiled QFG
// snapshot — compiled by NewSystem, or loaded from a packed internal/store
// archive: the mapper ranks against the snapshot, and with cfg.LogJoin the
// join weights derive from it at generator build time. cfg.QFG is ignored;
// cfg.JoinWeights still overrides the weight function. A nil snapshot
// builds the log-free baseline.
func NewSystemFromSnapshot(name string, database *db.Database, model *embedding.Model, snap *qfg.Snapshot, cfg Config) *System {
	mapper := keyword.NewSnapshotMapper(database, model, snap, cfg.Keyword)
	w := cfg.JoinWeights
	if w == nil && cfg.LogJoin && snap != nil {
		w = joinpath.LogWeights(snap)
	}
	return NewFromParts(name, mapper, joinpath.NewGenerator(database.Schema(), w), cfg)
}

// NewFromParts assembles a System around a prebuilt mapper and join-path
// generator, so a serving layer can run translation through the same
// index/cache-backed components it uses for direct mapping calls. The
// Keyword, QFG, LogJoin and JoinWeights fields of cfg are ignored — they
// are already baked into the parts; Noise, TopConfigs and TopPaths apply.
func NewFromParts(name string, mapper *keyword.Mapper, joins *joinpath.Generator, cfg Config) *System {
	if cfg.TopConfigs <= 0 {
		cfg.TopConfigs = 8
	}
	if cfg.TopPaths <= 0 {
		// Consider a few alternative join paths per configuration so
		// equal-weight alternatives surface as ties: under uniform weights
		// an equal-length rival path yields the same ranking score with
		// different SQL, which the evaluation counts as incorrect.
		cfg.TopPaths = 3
	}
	return &System{
		name:       name,
		mapper:     mapper,
		joins:      joins,
		noise:      cfg.Noise,
		topConfigs: cfg.TopConfigs,
		topPaths:   cfg.TopPaths,
	}
}

// NewPipeline builds the SQLizer-style baseline of §VII-A2: word-embedding
// keyword mapping with no log information and minimum-length join paths.
func NewPipeline(database *db.Database, model *embedding.Model, opts keyword.Options) *System {
	return NewSystem("Pipeline", database, model, Config{Keyword: opts})
}

// NewPipelinePlus builds Pipeline augmented with Templar. logJoin toggles
// Table IV's LogJoin switch; keyword mapping always uses the QFG.
func NewPipelinePlus(database *db.Database, model *embedding.Model, graph *qfg.Graph, logJoin bool, opts keyword.Options) *System {
	return NewSystem("Pipeline+", database, model, Config{Keyword: opts, QFG: graph, LogJoin: logJoin})
}

// NewNaLIR builds the NaLIR-style baseline: lexicon-only (WordNet-like)
// similarity, preset uniform join weights, and a noisy parser front-end
// reproducing the §VII-C failure modes.
func NewNaLIR(database *db.Database, noise *ParserNoise, opts keyword.Options) *System {
	return NewSystem("NaLIR", database, embedding.NewLexiconOnly(), Config{Keyword: opts, Noise: noise})
}

// NewNaLIRPlus builds NaLIR augmented with Templar: the same noisy parser
// front-end, with keyword mapping and join inference deferred to Templar.
func NewNaLIRPlus(database *db.Database, model *embedding.Model, graph *qfg.Graph, noise *ParserNoise, opts keyword.Options) *System {
	return NewSystem("NaLIR+", database, model, Config{Keyword: opts, QFG: graph, LogJoin: true, Noise: noise})
}

// CallOptions are per-request overrides of a System's construction-time
// bounds; the zero value changes nothing.
type CallOptions struct {
	// Keyword is forwarded to the mapper (κ override, enumeration cap,
	// obscurity assertion).
	Keyword keyword.CallOptions
	// TopConfigs overrides how many configurations are tried for SQL
	// construction (0 = configured default).
	TopConfigs int
	// TopPaths overrides how many join paths are considered per
	// configuration (0 = configured default).
	TopPaths int
}

// Translate runs the full pipeline with no cancellation and the System's
// configured bounds; see TranslateCtx.
func (s *System) Translate(nlq string, hazard bool, kws []keyword.Keyword) (*Translation, error) {
	return s.TranslateCtx(context.Background(), nlq, hazard, kws, CallOptions{})
}

// TranslateCtx runs the full pipeline for one parsed NLQ: (optional parser
// noise) → MAPKEYWORDS → INFERJOINS per configuration → SQL construction →
// ranking by configuration score × join-path goodness.
//
// ctx rides into the mapper's configuration enumeration and every join
// path search, and is additionally checked between configurations, so a
// canceled request aborts mid-pipeline with the wrapped ctx error.
func (s *System) TranslateCtx(ctx context.Context, nlq string, hazard bool, kws []keyword.Keyword, co CallOptions) (*Translation, error) {
	if s.noise != nil {
		kws = s.noise.Corrupt(nlq, hazard, kws)
	}
	topConfigs := s.topConfigs
	if co.TopConfigs > 0 {
		topConfigs = co.TopConfigs
	}
	topPaths := s.topPaths
	if co.TopPaths > 0 {
		topPaths = co.TopPaths
	}
	// Only the best topConfigs configurations are ever tried for SQL
	// construction, so tell the mapper: it then runs a bounded top-k
	// selection over the enumeration (identical results to sorting the
	// whole product and slicing) instead of materializing all of it.
	kco := co.Keyword
	if kco.TopK <= 0 || kco.TopK > topConfigs {
		kco.TopK = topConfigs
	}
	configs, err := s.mapper.MapKeywordsCtx(ctx, kws, kco)
	if err != nil {
		return nil, err
	}
	if len(configs) > topConfigs {
		configs = configs[:topConfigs]
	}
	// Ranking follows the pipeline architecture (§III-F): the keyword
	// mapping configuration ranks first; among equally-likely
	// configurations (and among the join paths of one configuration) the
	// join-path goodness breaks ties. SQL construction never promotes a
	// lower-ranked configuration over a higher one — which also means
	// ranking needs only the two scores. SQL is therefore built lazily:
	// candidates are ranked score-first, and the expensive
	// construct→render→canonicalize chain runs only for the winner (and,
	// for tie detection, its exact rank peers) instead of every
	// (configuration, path) pair.
	type candidate struct {
		cfg      keyword.Configuration
		path     joinpath.Path
		cfgScore float64
		goodness float64
		dead     bool // BuildSQL failed: path does not cover the bag
	}
	var cands []candidate
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("nlidb: translation canceled: %w", err)
		}
		bag := RelationBag(cfg)
		paths, err := s.joins.InferCtx(ctx, bag, topPaths)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err // canceled mid-search, not an infeasible bag
			}
			continue // disconnected bag: this configuration is infeasible
		}
		for _, p := range paths {
			cands = append(cands, candidate{cfg: cfg, path: p, cfgScore: cfg.Score, goodness: p.Goodness})
		}
	}
	better := func(a, b candidate) bool {
		if math.Abs(a.cfgScore-b.cfgScore) > 1e-12 {
			return a.cfgScore > b.cfgScore
		}
		return a.goodness > b.goodness+1e-12
	}
	// Select the best buildable candidate: a candidate whose SQL cannot be
	// assembled (the join path fails to cover a mapped relation) is
	// discarded and selection re-runs, exactly as if it had been filtered
	// out up front.
	var (
		best      int
		bestQ     *sqlparse.Query
		bestCanon string
	)
	for {
		best = -1
		for i := range cands {
			if cands[i].dead {
				continue
			}
			if best < 0 || better(cands[i], cands[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("nlidb: no feasible configuration for keywords %v", kws)
		}
		q, err := BuildSQL(cands[best].cfg, cands[best].path)
		if err != nil {
			cands[best].dead = true
			continue
		}
		canon, err := canonicalSQL(q)
		if err != nil {
			return nil, fmt.Errorf("nlidb: generated unparseable SQL: %w", err)
		}
		bestQ, bestCanon = q, canon
		break
	}
	tr := Translation{
		SQL:      bestCanon,
		Rendered: bestQ.String(),
		Config:   cands[best].cfg,
		Path:     cands[best].path,
		Score:    cands[best].cfgScore * cands[best].goodness,
	}
	// The winning configuration's Mappings slice is a view into the
	// mapper's shared enumeration arena; copy it so a retained Translation
	// doesn't pin every enumerated configuration in memory.
	tr.Config.Mappings = append([]keyword.Mapping(nil), tr.Config.Mappings...)
	for i := range cands {
		if i == best || cands[i].dead {
			continue
		}
		sameRank := math.Abs(cands[i].cfgScore-cands[best].cfgScore) <= 1e-12 &&
			math.Abs(cands[i].goodness-cands[best].goodness) <= 1e-12
		if !sameRank {
			continue
		}
		q, err := BuildSQL(cands[i].cfg, cands[i].path)
		if err != nil {
			continue // would have been filtered out of the eager list too
		}
		canon, err := canonicalSQL(q)
		if err != nil {
			return nil, fmt.Errorf("nlidb: generated unparseable SQL: %w", err)
		}
		if canon != bestCanon {
			tr.Tie = true
			break
		}
	}
	return &tr, nil
}

// TopMappings exposes the mapper's ranked configurations without SQL
// construction, for keyword-mapping (KW) accuracy measurement. Parser noise
// is applied the same way Translate applies it.
func (s *System) TopMappings(nlq string, hazard bool, kws []keyword.Keyword) ([]keyword.Configuration, error) {
	if s.noise != nil {
		kws = s.noise.Corrupt(nlq, hazard, kws)
	}
	return s.mapper.MapKeywords(kws)
}

// ObscurityOf reports the obscurity the underlying mapper uses (diagnostic).
func ObscurityOf(opts keyword.Options) fragment.Obscurity { return opts.Obscurity }
