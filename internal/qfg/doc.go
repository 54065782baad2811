// Package qfg implements the Query Fragment Graph (paper Definition 6): a
// graph whose vertices are query fragments observed in a SQL query log,
// with an occurrence count nv per fragment and a co-occurrence count ne
// per pair of fragments that appear together in at least one logged query.
//
// The QFG drives both of Templar's log-based scores:
//
//   - keyword-mapping configurations are ranked with the geometric mean of
//     Dice coefficients over non-FROM fragment pairs (§V-C2), and
//   - join-path edge weights are set to 1 − Dice over FROM fragments (§VI-A2).
//
// # One graph: a builder and a snapshot
//
// Graph is the mutable builder: fragment-keyed maps behind an RWMutex,
// grown by AddQuery/AddSession and inspected with Occurrences,
// CoOccurrences, Dice, Top and Neighbors. Build mines a parsed log in one
// call. It is the batch accumulator and the reference the parity tests
// compare snapshots against.
//
// Snapshot is the immutable compiled view serving reads come from:
// fragments interned to dense uint32 IDs (fragment.Interner), nv in a flat
// slice, ne as CSR-sorted adjacency probed by binary search. DiceID — the
// hot path — is a handful of array reads, lock-free, bit-identical to
// Graph.Dice on the same state. Snapshots sharing an interner agree on
// every fragment ID.
//
// Every snapshot is built by one fold, which merges a small delta Graph
// (only new queries and sessions) into an existing snapshot: untouched CSR
// rows are copied, touched rows merged. Graph.Snapshot folds a whole graph
// into an empty snapshot. Live is an atomically published snapshot plus
// that fold: an append folds its own delta into the current snapshot and
// publishes the result copy-on-write, so readers load the current snapshot
// with one atomic pointer read and are never blocked. Session weights are
// carried exactly from fold to fold, so a snapshot served after any
// sequence of appends equals the batch build of the same log bit for bit.
// SnapshotSource abstracts "a place the current snapshot comes from"; a
// fixed *Snapshot and a *Live both satisfy it.
//
// # Persistence
//
// Parts/NewSnapshotFromParts expose and reassemble a snapshot's raw
// compiled arrays so internal/store can round-trip snapshots to disk as
// versioned binary archives. NewLiveFromSnapshot publishes a loaded
// snapshot as it is, so a process cold-starting from the store serves
// bit-identical scores and still accepts log appends: the first append
// recovers each pair's session weight once, as co − float64(ne), and
// folds on from there.
package qfg
