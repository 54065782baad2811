// Package keyword implements Templar's Keyword Mapper (paper §V,
// Algorithms 1–3): mapping NLQ keywords to candidate query fragments,
// scoring and pruning the candidates with a word-similarity model, and
// ranking whole configurations with the blend of the similarity score and
// the Query Fragment Graph's co-occurrence evidence:
//
//	Score(φ) = λ·Scoreσ(φ) + (1−λ)·ScoreQFG(φ)
//
// # Entry points
//
// Mapper is the engine; MapKeywords is the call (Algorithm 1).
// NewSnapshotMapper binds a mapper to a database, similarity model and the
// QFG snapshot source it ranks against: a fixed *qfg.Snapshot for a frozen
// log (compiled with qfg.Graph.Snapshot, or loaded from internal/store), a
// *qfg.Live so copy-on-write republishes reach the mapper without
// rebuilding it, or nil for the log-free baseline. WithSource pins a
// shallow copy of a mapper to one snapshot for the lifetime of a request
// pipeline, sharing the candidate index and similarity cache.
//
// A Mapper is safe for concurrent use: candidate retrieval goes through an
// inverted index over schema names and column values precomputed at
// construction, embedding similarities are memoized in a bounded sharded
// cache, and QFG scoring probes an immutable interned-ID snapshot with zero
// locking.
//
// Keyword carries the parser metadata M_k = (τ, ω, F, g) of §V-A;
// ParseSpec builds keyword lists from the compact "text:context[:op|:agg]"
// textual form the CLI and HTTP layers accept. Configuration is one ranked
// keyword→fragment mapping set; Options bundles κ, λ, obscurity and the
// paper's design-ablation toggles (arithmetic mean, FROM fragments in
// ScoreQFG).
package keyword
