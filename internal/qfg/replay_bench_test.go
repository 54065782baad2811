package qfg_test

import (
	"fmt"
	"regexp"
	"testing"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
)

// replayOps draws n append operations from MAS's gold log, as a recovering
// WAL would hold them: op k is gold query k (cycling), with every string
// literal suffixed " r<k>" so each op brings predicate fragments of its own
// at Full obscurity and the delta keeps growing; every fourth op is a
// two-query session.
func replayOps(b *testing.B, tasks []datasets.Task, n int) []qfg.ReplayOp {
	b.Helper()
	literal := regexp.MustCompile(`'[^']*'`)
	parse := func(k int) *sqlparse.Query {
		sql := literal.ReplaceAllStringFunc(tasks[k%len(tasks)].Gold, func(s string) string {
			return fmt.Sprintf("%s r%d'", s[:len(s)-1], k)
		})
		q, err := sqlparse.Parse(sql)
		if err == nil {
			err = q.Resolve(nil)
		}
		if err != nil {
			b.Fatalf("%s: %v", sql, err)
		}
		return q
	}
	ops := make([]qfg.ReplayOp, n)
	for k := range ops {
		if k%4 == 3 {
			ops[k] = qfg.ReplayOp{Session: true, Count: 1, Decay: 0.5, Queries: []*sqlparse.Query{parse(k - 1), parse(k)}}
		} else {
			ops[k] = qfg.ReplayOp{Queries: []*sqlparse.Query{parse(k)}, Counts: []int{1 + k%3}}
		}
	}
	return ops
}

// BenchmarkLiveReplay times Live.Replay of n ops onto a Live compiled from
// MAS's gold log, and reports the cost per replayed op, which should stay
// flat as n grows: replay is linear in the log.
//
//	go test ./internal/qfg -run '^$' -bench LiveReplay -count 5
func BenchmarkLiveReplay(b *testing.B) {
	tasks := datasets.MAS().Tasks
	base := qfg.New(fragment.Full)
	for k := range tasks {
		q, err := sqlparse.Parse(tasks[k].Gold)
		if err == nil {
			err = q.Resolve(nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		base.AddQuery(q, 1)
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		ops := replayOps(b, tasks, n)
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l := qfg.NewLive(base) // a fresh interner, so every run assigns the same IDs
				b.StartTimer()
				if err := l.Replay(ops); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/replayed-op")
		})
	}
}
