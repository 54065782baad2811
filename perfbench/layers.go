package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"templar/internal/embedding"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/repl"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/internal/workload"
	"templar/pkg/api"
)

// The translate pipeline's construction-time bounds (nlidb.NewFromParts
// defaults), which the layer re-enactment below mirrors.
const (
	pipelineTopConfigs = 8
	pipelineTopPaths   = 3
)

// shadow is a served tenant's engine rebuilt from the same database and
// snapshot, twice: as a templar.System (the direct call the served
// roundtrip is compared with) and as the bare layers the System composes,
// so the benchmark can time each layer's public function on the same
// input without touching the served engine.
type shadow struct {
	sys    *templar.System
	mapper *keyword.Mapper
	gen    *joinpath.Generator
}

func newShadow(t *serve.Tenant) *shadow {
	database, snap := t.Sys.Database(), t.Sys.Snapshot()
	return &shadow{
		sys:    templar.NewFromSnapshot(database, embedding.New(), snap, engineOptions),
		mapper: keyword.NewSnapshotMapper(database, embedding.New(), snap, engineOptions.Keyword),
		gen:    joinpath.NewGenerator(database.Schema(), joinpath.LogWeights(snap)),
	}
}

// readLayers is what the traced read pass counted.
type readLayers struct {
	selfUS     []float64 // served roundtrip minus direct call, one-query requests
	configs    []float64 // configurations enumerated per keyword.map call
	inferCalls []float64 // joinpath.infer calls per translated query
	mismatches int
	requests   int
}

// bagKey is the relation bag as a sorted multiset, the infer cache's key.
func bagKey(bag []string) string {
	s := append([]string(nil), bag...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// pipeline re-enacts nlidb's translate on the shadow's bare layers:
// keyword.map for the top configurations, joinpath.infer per
// configuration, and nlidb.BuildSQL on candidates in rank order until one
// builds. Spans are children of parent.
func (sh *shadow) pipeline(ctx context.Context, tr *tracer, parent, req int, kws []keyword.Keyword, bags map[string]bool) (inferCalls int, err error) {
	var cfgs []keyword.Configuration
	tr.do("keyword.map", parent, req, func() {
		cfgs, err = sh.mapper.MapKeywordsCtx(ctx, kws, keyword.CallOptions{TopK: pipelineTopConfigs})
	})
	if err != nil {
		return 0, err
	}
	type cand struct {
		cfg  keyword.Configuration
		path joinpath.Path
	}
	var cands []cand
	for _, cfg := range cfgs {
		bag := nlidb.RelationBag(cfg)
		if bags != nil {
			bags[bagKey(bag)] = true
		}
		var paths []joinpath.Path
		var ierr error
		tr.do("joinpath.infer", parent, req, func() { paths, ierr = sh.gen.InferCtx(ctx, bag, pipelineTopPaths) })
		inferCalls++
		if ierr != nil {
			continue // a disconnected bag makes the configuration infeasible
		}
		for _, p := range paths {
			cands = append(cands, cand{cfg, p})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if math.Abs(a.cfg.Score-b.cfg.Score) > 1e-12 {
			return a.cfg.Score > b.cfg.Score
		}
		return a.path.Goodness > b.path.Goodness+1e-12
	})
	for _, c := range cands {
		var berr error
		tr.do("nlidb.build_sql", parent, req, func() { _, berr = nlidb.BuildSQL(c.cfg, c.path) })
		if berr == nil {
			return inferCalls, nil
		}
	}
	return inferCalls, fmt.Errorf("no feasible configuration")
}

// layered runs one read request through the shadow's bare layers.
func (sh *shadow) layered(ctx context.Context, tr *tracer, req int, r *workload.Request, out *readLayers) error {
	switch r.Op {
	case workload.OpMapKeywords:
		kws, err := toKeywords(r.MapKeywords.KeywordsInput)
		if err != nil {
			return err
		}
		tr.do("keyword.map", 0, req, func() {
			_, err = sh.mapper.MapKeywordsCtx(ctx, kws, keyword.CallOptions{TopK: r.MapKeywords.TopK})
		})
		if err != nil {
			return err
		}
		return sh.countConfigs(ctx, kws, out)
	case workload.OpInferJoins:
		var err error
		tr.do("joinpath.infer", 0, req, func() {
			_, err = sh.gen.InferCtx(ctx, r.InferJoins.Relations, inferTopK(r.InferJoins.TopK))
		})
		return err
	case workload.OpTranslate:
		for _, in := range r.Translate.Queries {
			kws, err := toKeywords(in)
			if err != nil {
				return err
			}
			pid := tr.start("nlidb.pipeline", 0, req)
			calls, err := sh.pipeline(ctx, tr, pid, req, kws, nil)
			tr.end(pid)
			if err != nil {
				return err
			}
			out.inferCalls = append(out.inferCalls, float64(calls))
			if err := sh.countConfigs(ctx, kws, out); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("layered: unsupported op %q", r.Op)
}

// countConfigs counts the configurations one mapping enumerates: an
// untrimmed call returns every configuration the enumeration produced.
func (sh *shadow) countConfigs(ctx context.Context, kws []keyword.Keyword, out *readLayers) error {
	all, err := sh.mapper.MapKeywordsCtx(ctx, kws, keyword.CallOptions{})
	if err != nil {
		return err
	}
	out.configs = append(out.configs, float64(len(all)))
	return nil
}

// readPass sends stream requests one at a time, starting at index first:
// each request goes through the server (serve.roundtrip), then through
// the shadow System (templar.*), then through the shadow's bare layers.
// A first, unrecorded half of dur fills the fresh shadows' caches; the
// recorded half then sends as many further requests, each new to all
// three engines, so their caches are in the same steady state. The served
// answer must equal the shadow System's.
func (e *env) readPass(ctx context.Context, tr *tracer, s *stream, first int, dur time.Duration, tenant func(dataset string) *serve.Tenant) (*readLayers, int, error) {
	shadows := map[*serve.Tenant]*shadow{}
	out := &readLayers{}
	n := 0
	for rec := 0; rec < 2; rec++ {
		t := tr
		if rec == 0 {
			t = nil
		}
		passStart := time.Now()
		base := first + rec*n
		for i := 0; ; i++ {
			if rec == 0 && i >= 8 && time.Since(passStart) >= dur/2 {
				n = i
				break
			}
			if rec == 1 && i >= n {
				break
			}
			r, _ := s.at(base + i)
			tn := tenant(r.Dataset)
			sh := shadows[tn]
			if sh == nil {
				sh = newShadow(tn)
				shadows[tn] = sh
			}
			req := base + i
			rt := t.start("serve.roundtrip", 0, req)
			rtStart := time.Now()
			got, err := e.send(ctx, r)
			rtDur := time.Since(rtStart)
			t.end(rt)
			if err != nil {
				return nil, 0, fmt.Errorf("trace pass: seq %d: %w", r.Seq, err)
			}
			dStart := time.Now()
			want, err := direct(ctx, sh.sys, r, t, req)
			dDur := time.Since(dStart)
			if err != nil {
				return nil, 0, fmt.Errorf("trace pass: seq %d: %w", r.Seq, err)
			}
			if rec == 0 {
				if err := sh.layered(ctx, nil, req, r, &readLayers{}); err != nil {
					return nil, 0, fmt.Errorf("trace pass: seq %d: %w", r.Seq, err)
				}
				continue
			}
			out.requests++
			if got != want {
				out.mismatches++
			}
			if r.Op != workload.OpTranslate || len(r.Translate.Queries) == 1 {
				out.selfUS = append(out.selfUS, us(rtDur-dDur))
			}
			if err := sh.layered(ctx, t, req, r, out); err != nil {
				return nil, 0, fmt.Errorf("trace pass: seq %d: %w", r.Seq, err)
			}
		}
	}
	return out, first + 2*n, nil
}

// streamBags counts the distinct relation bags the stream sends to join
// inference: infer-joins requests' bags plus the bags of the top
// configurations every translated query tries. It maps each translate
// query on a shadow, from nproc goroutines.
func streamBags(ctx context.Context, s *stream, tenant func(string) *serve.Tenant, nproc int) (int, error) {
	shadows := map[*serve.Tenant]*shadow{}
	for _, r := range s.reqs {
		t := tenant(r.Dataset)
		if shadows[t] == nil {
			shadows[t] = newShadow(t)
		}
	}
	var mu sync.Mutex
	bags := map[string]bool{}
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[string]bool{}
			for i := w; i < len(s.reqs); i += nproc {
				r := &s.reqs[i]
				switch r.Op {
				case workload.OpInferJoins:
					local[bagKey(r.InferJoins.Relations)] = true
				case workload.OpTranslate:
					sh := shadows[tenant(r.Dataset)]
					for _, in := range r.Translate.Queries {
						kws, err := toKeywords(in)
						if err == nil {
							_, err = sh.pipeline(ctx, nil, 0, 0, kws, local)
						}
						if err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
							return
						}
					}
				}
			}
			mu.Lock()
			for k := range local {
				bags[k] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return len(bags), firstErr
}

// appendOp is one acknowledged append, parsed, alias-resolved and
// normalized the way the server applies it: counts of at least 1 and a
// session decay of 0.5 when unset.
type appendOp struct {
	queries []*sqlparse.Query
	counts  []int
	session bool
	decay   float64
}

// parseAppend parses an append request's queries, each as one
// sqlparse.parse span of request req.
func parseAppend(r api.LogAppendRequest, tr *tracer, req int) (appendOp, error) {
	op := appendOp{
		queries: make([]*sqlparse.Query, len(r.Queries)),
		counts:  make([]int, len(r.Queries)),
		session: r.Session,
		decay:   r.Decay,
	}
	if op.session && op.decay == 0 {
		op.decay = 0.5
	}
	for i, entry := range r.Queries {
		var q *sqlparse.Query
		var err error
		tr.do("sqlparse.parse", 0, req, func() {
			if q, err = sqlparse.Parse(entry.SQL); err == nil {
				err = q.Resolve(nil)
			}
		})
		if err != nil {
			return appendOp{}, err
		}
		op.queries[i], op.counts[i] = q, max(entry.Count, 1)
	}
	return op, nil
}

// writeLayers is what the traced write pass measured.
type writeLayers struct {
	bytesPerRecord float64
	replayPerRec   time.Duration
}

// writePass sends the run's first acknowledged writes (up to
// tracedWrites), in ack order, through the layers' public functions on a
// shadow copy of the write tenant: the same archive, its own temporary
// WAL. Nothing here touches the served tenant.
// It then measures follower apply (repl.ToReplayOp + Live.Replay of the
// records onto a fresh live) and boot replay (serve.AttachWAL over the
// shadow WAL), and checks both reproduce the shadow's final snapshot.
func (e *env) writePass(ctx context.Context, tr *tracer, acks []ack) (*writeLayers, error) {
	w := e.write
	dir, err := os.MkdirTemp(e.dir, "shadow-")
	if err != nil {
		return nil, err
	}
	var mapped []*store.Mapped
	defer func() {
		for _, m := range mapped {
			m.Close()
		}
	}()
	open := func() (*qfg.Live, uint64, error) {
		var m *store.Mapped
		var err error
		tr.do("store.open", 0, 0, func() { m, err = store.Open(w.archive) })
		if err != nil {
			return nil, 0, err
		}
		mapped = append(mapped, m)
		var live *qfg.Live
		tr.do("qfg.live_wrap", 0, 0, func() { live = qfg.NewLiveFromSnapshot(m.Snapshot) })
		return live, m.WalSeq, nil
	}

	live, _, err := open()
	if err != nil {
		return nil, err
	}
	database := w.ds.DB
	tr.do("keyword.index_build", 0, 0, func() {
		keyword.NewSnapshotMapper(database, embedding.New(), live, engineOptions.Keyword)
	})
	sys := templar.NewLive(database, embedding.New(), live, engineOptions)
	log, _, err := wal.Open(dir, w.t.Name, wal.Options{})
	if err != nil {
		return nil, err
	}
	out := &writeLayers{}
	var records []*wal.Record
	var bytes int64
	for i, a := range acks {
		op, err := parseAppend(a.req, tr, i)
		if err != nil {
			log.Close()
			return nil, err
		}
		rec := &wal.Record{Session: op.session, Entries: make([]wal.Entry, len(op.queries))}
		for j, entry := range a.req.Queries {
			rec.Entries[j] = wal.Entry{SQL: entry.SQL, Count: op.counts[j]}
		}
		if op.session {
			rec.Count, rec.Decay = 1, op.decay
		}
		before := log.Stats().Bytes
		tr.do("wal.append", 0, i, func() { _, err = log.Append(rec) })
		if err != nil {
			log.Close()
			return nil, err
		}
		bytes += log.Stats().Bytes - before
		records = append(records, rec)
		tr.do("qfg.append_fold", 0, i, func() {
			if op.session {
				err = live.AddSession(op.queries, 1, op.decay)
			} else {
				live.AddQueries(op.queries, op.counts)
			}
		})
		if err != nil {
			log.Close()
			return nil, err
		}
		snap := live.CurrentSnapshot()
		tr.do("joinpath.generator_build", 0, i, func() {
			joinpath.NewGenerator(database.Schema(), joinpath.LogWeights(snap))
		})
		kws, err := toKeywords(a.read.Translate.Queries[0])
		if err != nil {
			log.Close()
			return nil, err
		}
		tr.do("templar.first_read_after_append", 0, i, func() { _, err = sys.Translate(ctx, kws, nil) })
		if err != nil {
			log.Close()
			return nil, err
		}
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	if len(acks) > 0 {
		out.bytesPerRecord = float64(bytes) / float64(len(acks))
	}
	final := live.CurrentSnapshot()

	// Follower apply: the records onto a fresh live, as a replica catching
	// up applies a tail batch.
	follower, _, err := open()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	id := tr.start("repl.apply", 0, 0)
	ops := make([]qfg.ReplayOp, len(records))
	for i, r := range records {
		if ops[i], err = repl.ToReplayOp(r); err != nil {
			return nil, err
		}
	}
	err = follower.Replay(ops)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if len(records) > 0 {
		out.replayPerRec = time.Since(start) / time.Duration(len(records))
	}
	if err := snapshotsEqual(follower.CurrentSnapshot(), final); err != nil {
		return nil, fmt.Errorf("follower apply diverged from the appended shadow: %w", err)
	}

	// Boot replay: a fresh tenant from the archive plus the shadow WAL.
	bootLive, seq, err := open()
	if err != nil {
		return nil, err
	}
	t := &serve.Tenant{Name: w.t.Name, Sys: templar.NewLive(database, embedding.New(), bootLive, engineOptions), SnapshotSeq: seq}
	tr.do("wal.replay", 0, 0, func() { _, err = serve.AttachWAL(t, dir, wal.Options{}) })
	if err != nil {
		return nil, err
	}
	t.WAL.Close()
	if err := snapshotsEqual(bootLive.CurrentSnapshot(), final); err != nil {
		return nil, fmt.Errorf("WAL replay diverged from the appended shadow: %w", err)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spanMedian is the median duration of the named spans, in microseconds
// (scale 1) or milliseconds (scale 1000).
func (b *bench) spanMedian(name string, scale float64) (float64, error) {
	xs, err := mustSpans(byName(b.tr.snapshot()), name)
	if err != nil {
		return 0, err
	}
	return median(xs) / scale, nil
}

// setSpanMetrics sets each named per-layer metric to the median of its
// span's durations.
func (b *bench) setSpanMetrics(metrics map[string]string) error {
	for metricName, spanName := range metrics {
		scale, unit := 1.0, "us"
		if strings.HasSuffix(metricName, "_ms") {
			scale, unit = 1000, "ms"
		}
		v, err := b.spanMedian(spanName, scale)
		if err != nil {
			return err
		}
		b.layer[metricName] = metric{v, unit}
	}
	return nil
}

// traceReads runs the traced read pass from stream index first and
// derives the read-path layer metrics. used is every read request the
// tenant's engine answered, whose relation bags are counted against the
// infer cache.
func (b *bench) traceReads(ctx context.Context, s *stream, first int, used []workload.Request) error {
	rl, _, err := b.e.readPass(ctx, b.tr, s, first, b.dur/4, b.tenant)
	if err != nil {
		return err
	}
	if rl.mismatches > 0 {
		b.checks = append(b.checks, fmt.Sprintf("trace pass: %d of %d served answers differ from the shadow engine", rl.mismatches, rl.requests))
	}
	bags, err := streamBags(ctx, &stream{reqs: used}, b.tenant, b.nproc)
	if err != nil {
		return err
	}
	b.printf("sizes relation bags sent to join inference %d (infer cache capacity %d) over %d requests", bags, inferCacheCapacity, len(used))
	if err := b.setSpanMetrics(map[string]string{
		"serve.roundtrip_us":   "serve.roundtrip",
		"templar.translate_us": "templar.translate",
		"keyword.map_us":       "keyword.map",
		"joinpath.infer_us":    "joinpath.infer",
		"nlidb.build_sql_us":   "nlidb.build_sql",
	}); err != nil {
		return err
	}
	var rank []float64
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	for _, sp := range spans {
		if sp.Name == "nlidb.pipeline" {
			rank = append(rank, us(self[sp.ID]))
		}
	}
	b.layer["nlidb.rank_self_us"] = metric{median(rank), "us"}
	b.layer["serve.self_us_per_query"] = metric{median(rl.selfUS), "us"}
	b.layer["keyword.configs_enumerated"] = metric{mean(rl.configs), "count"}
	b.layer["joinpath.calls_per_translate"] = metric{mean(rl.inferCalls), "count"}
	b.layer["joinpath.distinct_bags"] = metric{float64(bags), "count"}
	b.printf("trace read pass: %d requests, %d one-query self-time samples", rl.requests, len(rl.selfUS))
	return nil
}

// traceWrites runs the traced write pass and derives the write, boot and
// follower layer metrics.
func (b *bench) traceWrites(ctx context.Context, acks []ack) error {
	wl, err := b.e.writePass(ctx, b.tr, acks[:min(len(acks), tracedWrites)])
	if err != nil {
		return err
	}
	if err := b.setSpanMetrics(map[string]string{
		"sqlparse.parse_us":                  "sqlparse.parse",
		"wal.append_us":                      "wal.append",
		"qfg.append_fold_us":                 "qfg.append_fold",
		"joinpath.generator_build_us":        "joinpath.generator_build",
		"templar.first_read_after_append_us": "templar.first_read_after_append",
		"store.open_ms":                      "store.open",
		"qfg.live_wrap_ms":                   "qfg.live_wrap",
		"keyword.index_build_ms":             "keyword.index_build",
		"wal.replay_ms":                      "wal.replay",
	}); err != nil {
		return err
	}
	b.layer["wal.bytes_per_record"] = metric{wl.bytesPerRecord, "bytes"}
	b.layer["repl.apply_us_per_record"] = metric{us(wl.replayPerRec), "us"}
	b.printf("trace write pass: %d of %d appends replayed on a shadow tenant", min(len(acks), tracedWrites), len(acks))
	return nil
}
