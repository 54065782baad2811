// Counterfactual replay: the offline proof that the feedback loop
// actually learns. The committed golden corpora pin the answers of the
// ORACLE engine — one whose QFG was mined from every task's gold SQL.
// The harness rebuilds each dataset at each obscurity level from a
// seeded PARTIAL log (the holdout's gold SQL withheld), replays the
// golden task battery and counts hits against the pinned oracle
// answers, then ingests a seeded feedback stream exactly the way the
// serving layer would — a served translation matching the gold
// canonical SQL is accepted back into qfg.Live, anything else is
// corrected with the task's gold SQL — and replays the battery again
// on the SAME live engine. Feedback refills exactly the withheld slice
// of the log, so the live graph converges toward the oracle graph and
// the obscured hit-rates climb with it.
//
// The gate is asymmetric on purpose: the obscured levels (NoConst,
// NoConstOp), where the QFG carries the ranking, must strictly improve
// on every dataset, while Full visibility — where similarity already
// dominates — must never lose a single pinned answer it had before
// feedback, and the committed Full corpora must stay byte-identical to
// a fresh oracle regeneration. Improvement without poisoning.
//
// Everything is a pure function of (datasets, options): no clocks, no
// global randomness, so the emitted report is bit-reproducible and CI
// can archive it as an artifact.

package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/pool"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/templar"
	"templar/internal/xrand"
)

// CounterfactualOptions pins every input that shapes a counterfactual
// run; the values are echoed into the report header so a run can be
// reproduced from its artifact alone.
type CounterfactualOptions struct {
	// HoldoutFraction is the share of tasks whose gold SQL is withheld
	// from the training log and later re-supplied as feedback. Default 0.5.
	HoldoutFraction float64
	// Seed drives both the holdout split and the feedback ingestion
	// order. Default 1.
	Seed uint64
	// Weight is the multiplicity a correction is folded in with — the
	// counterfactual twin of FeedbackRequest.Weight. Default 1, which
	// makes the post-feedback log exactly the oracle log; larger values
	// trade that exact convergence for a stronger fresh-signal boost.
	Weight int
	// Golden is the battery operating point; the zero value means
	// DefaultGoldenOptions, i.e. the committed corpora's own settings.
	Golden GoldenOptions
	// Parallelism bounds concurrent holdout translations. Default:
	// min(GOMAXPROCS, 8).
	Parallelism int
	// GoldenDir, when non-empty, additionally verifies the committed
	// Full-visibility golden corpora are byte-identical to a fresh
	// oracle regeneration — the pinned-answer half of the gate.
	GoldenDir string
}

func (o CounterfactualOptions) withDefaults() CounterfactualOptions {
	if o.HoldoutFraction <= 0 || o.HoldoutFraction >= 1 {
		o.HoldoutFraction = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Weight <= 0 {
		o.Weight = 1
	}
	o.Golden = o.Golden.withDefaults()
	if o.Parallelism <= 0 {
		o.Parallelism = pool.DefaultWorkers()
	}
	return o
}

// CounterfactualLevel is one (dataset, obscurity) replay: golden-battery
// hits against the pinned oracle answers before and after the feedback
// stream, with the per-task transition counts that make the gate
// auditable.
type CounterfactualLevel struct {
	Obscurity string `json:"obscurity"`
	// Battery is the golden task battery size; Holdout is how many of
	// the dataset's tasks were withheld from the training log.
	Battery int `json:"battery"`
	Holdout int `json:"holdout"`
	// BeforeHits/AfterHits count battery tasks whose full pinned answer
	// (ranked configurations with scores, join choice, SQL, tie) the
	// system reproduced before and after feedback ingestion.
	BeforeHits int `json:"before_hits"`
	AfterHits  int `json:"after_hits"`
	// Gained counts tasks missed before and hit after; Regressed counts
	// the reverse. AfterHits - BeforeHits == Gained - Regressed.
	Gained    int `json:"gained"`
	Regressed int `json:"regressed"`
	// Accepted/Corrected are the ingested feedback verdict counts.
	Accepted  int `json:"accepted"`
	Corrected int `json:"corrected"`
	// Converged reports the strongest possible outcome: the replayed
	// corpus is byte-identical to the oracle corpus — the live graph
	// learned its way back to the exact pinned state.
	Converged bool `json:"converged"`
}

// BeforePct is the pre-feedback battery hit-rate in percent.
func (l CounterfactualLevel) BeforePct() float64 { return pct(l.BeforeHits, l.Battery) }

// AfterPct is the post-feedback battery hit-rate in percent.
func (l CounterfactualLevel) AfterPct() float64 { return pct(l.AfterHits, l.Battery) }

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// CounterfactualDataset groups one dataset's levels plus its committed
// golden byte-identity verdict (empty string = not checked or clean).
type CounterfactualDataset struct {
	Dataset string                `json:"dataset"`
	Levels  []CounterfactualLevel `json:"levels"`
	// GoldenError is non-empty when GoldenDir was set and the committed
	// Full corpus is not byte-identical to a fresh regeneration.
	GoldenError string `json:"golden_error,omitempty"`
}

// CounterfactualReport is the whole run: the echoed options, every
// dataset's levels, and the gate verdict. The encoding is deterministic
// (fixed field order, no timestamps) so CI can diff artifacts across
// runs.
type CounterfactualReport struct {
	HoldoutFraction float64                 `json:"holdout_fraction"`
	Seed            uint64                  `json:"seed"`
	Weight          int                     `json:"weight"`
	K               int                     `json:"kappa"`
	Lambda          float64                 `json:"lambda"`
	Datasets        []CounterfactualDataset `json:"datasets"`
	// Violations is the gate's output: empty means the learning loop
	// held its contract on every dataset.
	Violations []string `json:"violations,omitempty"`
}

// counterfactualLevels is the replay battery: the gap-facing levels the
// QFG exists for, plus Full as the no-regression control.
var counterfactualLevels = []fragment.Obscurity{fragment.Full, fragment.NoConst, fragment.NoConstOp}

// RunCounterfactual replays the feedback loop offline over the named
// datasets and gates the result. The returned report's Violations field
// is already populated; callers that only need pass/fail can check
// len(report.Violations) == 0.
func RunCounterfactual(names []string, opts CounterfactualOptions) (*CounterfactualReport, error) {
	opts = opts.withDefaults()
	report := &CounterfactualReport{
		HoldoutFraction: opts.HoldoutFraction,
		Seed:            opts.Seed,
		Weight:          opts.Weight,
		K:               opts.Golden.K,
		Lambda:          opts.Golden.Lambda,
	}
	for _, name := range names {
		ds, ok := datasets.ByName(name)
		if !ok {
			return nil, fmt.Errorf("eval: unknown dataset %q", name)
		}
		cd := CounterfactualDataset{Dataset: ds.Name}
		for _, ob := range counterfactualLevels {
			level, err := runCounterfactualLevel(ds, ob, opts)
			if err != nil {
				return nil, fmt.Errorf("eval: %s/%s: %w", ds.Name, ob, err)
			}
			cd.Levels = append(cd.Levels, level)
		}
		if opts.GoldenDir != "" {
			cd.GoldenError = verifyFullGolden(ds, opts.GoldenDir)
		}
		report.Datasets = append(report.Datasets, cd)
	}
	report.Violations = report.gate()
	return report, nil
}

// runCounterfactualLevel is one oracle/before/feedback/after replay on
// one live engine.
func runCounterfactualLevel(ds *datasets.Dataset, ob fragment.Obscurity, opts CounterfactualOptions) (CounterfactualLevel, error) {
	level := CounterfactualLevel{Obscurity: ob.String()}

	// The oracle: the committed corpora's own generation path, a QFG
	// mined from every task's gold SQL. Its per-task answers are what
	// "hit" means below.
	oracle, err := BuildGolden(ds, ob, opts.Golden)
	if err != nil {
		return level, err
	}
	level.Battery = len(oracle.Tasks)

	// The counterfactual system: identical engine, but the holdout
	// tasks' gold SQL never entered its log.
	holdout, train := splitHoldout(len(ds.Tasks), opts.HoldoutFraction, opts.Seed)
	level.Holdout = len(holdout)
	entries := make([]sqlparse.LogEntry, 0, len(train))
	for _, ti := range train {
		q, err := sqlparse.Parse(ds.Tasks[ti].Gold)
		if err != nil {
			return level, fmt.Errorf("%s: %w", ds.Tasks[ti].ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, ob)
	if err != nil {
		return level, err
	}
	live := qfg.NewLive(graph)
	sys := templar.NewLive(ds.DB, embedding.New(), live, templar.Options{
		Keyword: keyword.Options{K: opts.Golden.K, Lambda: opts.Golden.Lambda, Obscurity: ob},
		LogJoin: true,
	})

	before, err := ReplayGolden(ds, sys, ob, opts.Golden)
	if err != nil {
		return level, err
	}

	// The feedback stream: every holdout task arrives once, in a second
	// seeded order. The harness plays the user: it asks the live system
	// to translate, accepts a served answer that matches the task's gold
	// canonical SQL (folding the SERVED text back in, exactly like the
	// accepted verdict), and corrects anything else with the gold SQL at
	// the correction weight. Either way the withheld query re-enters the
	// log through the same append path the serving layer uses.
	order := append([]int(nil), holdout...)
	xrand.New(opts.Seed^0x9e3779b97f4a7c15).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	ctx := context.Background()
	for _, ti := range order {
		task := ds.Tasks[ti]
		served := ""
		if tr, err := sys.Translate(ctx, task.Keywords, nil); err == nil && tr != nil && !tr.Tie {
			served = tr.SQL
		}
		text, weight := task.Gold, opts.Weight
		accepted := served == task.GoldCanonical
		if accepted {
			text, weight = served, 1
		}
		// Parse + alias-resolve, exactly the serving layer's append
		// pipeline (qfg.Live requires alias-resolved queries).
		q, err := sqlparse.Parse(text)
		if err != nil {
			return level, fmt.Errorf("%s: %w", task.ID, err)
		}
		if err := q.Resolve(nil); err != nil {
			return level, fmt.Errorf("%s: %w", task.ID, err)
		}
		live.AddQueries([]*sqlparse.Query{q}, []int{weight})
		if accepted {
			level.Accepted++
		} else {
			level.Corrected++
		}
	}

	after, err := ReplayGolden(ds, sys, ob, opts.Golden)
	if err != nil {
		return level, err
	}
	if len(before.Tasks) != len(oracle.Tasks) || len(after.Tasks) != len(oracle.Tasks) {
		return level, fmt.Errorf("battery drifted: %d/%d/%d tasks", len(oracle.Tasks), len(before.Tasks), len(after.Tasks))
	}
	for i := range oracle.Tasks {
		hitBefore := reflect.DeepEqual(before.Tasks[i], oracle.Tasks[i])
		hitAfter := reflect.DeepEqual(after.Tasks[i], oracle.Tasks[i])
		if hitBefore {
			level.BeforeHits++
		}
		if hitAfter {
			level.AfterHits++
		}
		switch {
		case !hitBefore && hitAfter:
			level.Gained++
		case hitBefore && !hitAfter:
			level.Regressed++
		}
	}
	level.Converged = string(EncodeGolden(after)) == string(EncodeGolden(oracle))
	return level, nil
}

// splitHoldout deterministically shuffles task indexes and carves off
// the holdout fraction, returning both halves in ascending order.
func splitHoldout(n int, fraction float64, seed uint64) (holdout, train []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	xrand.New(seed).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(n) * fraction)
	if cut < 1 {
		cut = 1
	}
	holdout = append([]int(nil), idx[:cut]...)
	train = append([]int(nil), idx[cut:]...)
	sortInts(holdout)
	sortInts(train)
	return holdout, train
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// verifyFullGolden regenerates the Full-visibility oracle corpus at the
// committed corpora's own operating point and compares it byte-for-byte
// with the committed file. Returns "" when identical.
func verifyFullGolden(ds *datasets.Dataset, dir string) string {
	name := GoldenFilename(ds.Name, fragment.Full)
	committed, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return fmt.Sprintf("read committed corpus: %v", err)
	}
	corpus, err := BuildGolden(ds, fragment.Full, DefaultGoldenOptions())
	if err != nil {
		return fmt.Sprintf("regenerate corpus: %v", err)
	}
	fresh := EncodeGolden(corpus)
	if string(fresh) == string(committed) {
		return ""
	}
	want, derr := DecodeGolden(committed)
	if derr != nil {
		return fmt.Sprintf("committed corpus unreadable: %v", derr)
	}
	if diffs := DiffGolden(want, corpus); len(diffs) > 0 {
		return fmt.Sprintf("%s diverged: %s", name, diffs[0])
	}
	return fmt.Sprintf("%s diverged at the byte level (encoding drift)", name)
}

// gate applies the learning contract and returns every violation:
//   - NoConst and NoConstOp battery hit-rate must STRICTLY improve on
//     every dataset (the loop must close the gap, not just hold level);
//   - Full must never lose a pinned answer it had before feedback, and
//     its committed golden corpus must stay byte-identical (pinned
//     answers are pinned).
func (r *CounterfactualReport) gate() []string {
	var out []string
	for _, cd := range r.Datasets {
		for _, l := range cd.Levels {
			switch l.Obscurity {
			case fragment.Full.String():
				if l.Regressed > 0 {
					out = append(out, fmt.Sprintf("%s/%s: %d pinned answers regressed after feedback (Full must never regress)",
						cd.Dataset, l.Obscurity, l.Regressed))
				}
			default:
				if l.AfterHits <= l.BeforeHits {
					out = append(out, fmt.Sprintf("%s/%s: battery hits %d→%d after feedback (obscured levels must strictly improve)",
						cd.Dataset, l.Obscurity, l.BeforeHits, l.AfterHits))
				}
			}
		}
		if cd.GoldenError != "" {
			out = append(out, fmt.Sprintf("%s: golden corpus check failed: %s", cd.Dataset, cd.GoldenError))
		}
	}
	return out
}

// Summary renders the human-readable run table templar-eval prints.
func (r *CounterfactualReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterfactual replay (holdout %.0f%%, seed %d, correction weight %d, κ=%d λ=%v)\n",
		100*r.HoldoutFraction, r.Seed, r.Weight, r.K, r.Lambda)
	for _, cd := range r.Datasets {
		for _, l := range cd.Levels {
			conv := ""
			if l.Converged {
				conv = ", converged to oracle"
			}
			fmt.Fprintf(&b, "  %-5s %-10s battery %2d: hits %5.1f%% → %5.1f%%  (+%d/-%d, %d accepted, %d corrected%s)\n",
				cd.Dataset, l.Obscurity, l.Battery, l.BeforePct(), l.AfterPct(),
				l.Gained, l.Regressed, l.Accepted, l.Corrected, conv)
		}
		if cd.GoldenError != "" {
			fmt.Fprintf(&b, "  %-5s golden: %s\n", cd.Dataset, cd.GoldenError)
		}
	}
	if len(r.Violations) == 0 {
		b.WriteString("  gate: PASS\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  gate VIOLATION: %s\n", v)
		}
	}
	return b.String()
}
