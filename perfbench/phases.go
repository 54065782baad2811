package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/workload"
)

// tenant resolves a request's dataset to its registered tenant.
func (b *bench) tenant(name string) *serve.Tenant { return b.e.reg.Get(name) }

// expected answers every stream entry with a direct call on its tenant's
// engine, from nproc goroutines. It also warms the served engines, so the
// timed phases start in steady state.
func (b *bench) expected(ctx context.Context, reqs []workload.Request) ([]string, error) {
	want := make([]string, len(reqs))
	errs := make([]error, b.nproc)
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(reqs); i += b.nproc {
				r := &reqs[i]
				got, err := direct(ctx, b.tenant(r.Dataset).Sys, r, nil, 0)
				if err != nil {
					errs[w] = fmt.Errorf("expected answer for seq %d: %w", r.Seq, err)
					return
				}
				want[i] = got
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}

// readPhases runs serve-read: an open loop at the fixed
// rate, a closed loop with nproc clients, then the write probe on the
// write tenant. It returns the probe's acknowledged appends.
func (b *bench) readPhases(ctx context.Context, writes, wreads []workload.Request) ([]ack, error) {
	e := b.e
	var profiles []*workload.Profile
	for i, ds := range e.readSets {
		p, err := profile(ds, e.reads[i].Name)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
		b.printSizes(p)
	}
	rate := serveReadRate
	reqs, err := generate(profiles, readMix, b.seed, serveReadStream)
	if err != nil {
		return nil, err
	}
	b.printf("stream reads mix %s fingerprint %s requests %d", readMix, workload.Fingerprint(reqs), len(reqs))
	want, err := b.expected(ctx, reqs)
	if err != nil {
		return nil, err
	}
	s := &stream{reqs: reqs, want: want}

	// Phase 1: open loop at the fixed rate.
	half := b.dur / 2
	nOpen := int(rate * half.Seconds())
	open := e.openLoop(ctx, s, 0, nOpen, rate, b.nproc)
	b.rec.merge(open)
	b.printf("phase open-loop rate %g/s sent %d late_p50_ms %g late_p99_ms %g", rate, open.attempted, median(open.late), quantile(open.late, 0.99))

	// Phase 2: closed loop. A traced run splits it into an untraced and a
	// traced half; the capacity difference is the tracing overhead.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	closedDur := half
	if b.tr != nil {
		closedDur = half / 2
	}
	closed, used, capacity := e.closedLoop(ctx, s, nOpen, closedDur, b.nproc, nil)
	runtime.ReadMemStats(&after)
	b.rec.merge(closed)
	b.printf("phase closed-loop clients %d sent %d capacity_rps_per_core %g", b.nproc, closed.attempted, capacity)
	next := nOpen + used
	if b.tr != nil {
		traced, used2, tracedCap := e.closedLoop(ctx, s, next, closedDur, b.nproc, b.tr)
		b.rec.merge(traced)
		next += used2
		b.layer["bench.tracing_overhead_frac"] = metric{1 - tracedCap/capacity, "fraction"}
		b.layer["runtime.mallocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / float64(closed.attempted), "count"}
		b.layer["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
		b.layer["bench.gen_late_p99_ms"] = metric{quantile(open.late, 0.99), "ms"}
	}

	// Phase 3: the write probe, on the write tenant only.
	probe := newRecorder()
	e.writeLoop(ctx, writes, wreads, 0, func(i int) bool { return i >= probeWrites }, probe, nil)
	b.rec.merge(probe)
	b.printf("phase write-probe appends %d", len(probe.acks))

	if err := requireSamples(open.lat, seriesTranslate, seriesMap, seriesInfer); err != nil {
		return nil, err
	}
	if err := requireSamples(probe.lat, seriesAppend, seriesRAW); err != nil {
		return nil, err
	}
	b.e2e["translate_p50_ms"] = metric{median(open.lat[seriesTranslate]), "ms"}
	b.layer["translate_p99_ms"] = metric{quantile(open.lat[seriesTranslate], 0.99), "ms"}
	b.e2e["capacity_rps_per_core"] = metric{capacity, "1/s"}
	b.e2e["append_ack_p50_ms"] = metric{median(probe.lat[seriesAppend]), "ms"}
	b.e2e["read_after_write_p50_ms"] = metric{median(probe.lat[seriesRAW]), "ms"}
	b.printf("open-loop samples translate %d map_keywords %d infer_joins %d; closed-loop translate_p50_ms %g",
		len(open.lat[seriesTranslate]), len(open.lat[seriesMap]), len(open.lat[seriesInfer]), median(closed.lat[seriesTranslate]))
	b.printf("info translate_p99_ms %g map_keywords_p50_ms %g infer_joins_p50_ms %g append_ack_p99_ms %g (samples %d, %d, %d, %d)",
		quantile(open.lat[seriesTranslate], 0.99), median(open.lat[seriesMap]), median(open.lat[seriesInfer]), quantile(probe.lat[seriesAppend], 0.99),
		len(open.lat[seriesTranslate]), len(open.lat[seriesMap]), len(open.lat[seriesInfer]), len(probe.lat[seriesAppend]))

	if b.tr != nil {
		// Every stream entry reaches the served engine's join inference, at
		// set-up for its expected answer.
		if err := b.traceReads(ctx, s, next, s.reqs); err != nil {
			return nil, err
		}
	}
	return probe.acks, nil
}

// appendPhases runs scale-append: for the measured time, one client
// appends then translates while another only translates, both on the
// write tenant. A traced run measures an untraced and a traced half.
func (b *bench) appendPhases(ctx context.Context, writes, wreads []workload.Request) ([]ack, error) {
	e := b.e
	p, err := profile(e.write.ds, e.write.t.Name)
	if err != nil {
		return nil, err
	}
	b.printSizes(p)
	reqs, err := generate([]*workload.Profile{p}, "map=0,infer=0,translate=1,log=0", b.seed+3, writeStream)
	if err != nil {
		return nil, err
	}
	b.printf("stream reader-translates fingerprint %s requests %d", workload.Fingerprint(reqs), len(reqs))
	s := &stream{reqs: reqs}

	all := newRecorder()
	// half runs the writer and the reader side by side for dur, from the
	// given stream positions, and returns how many appends and reads each
	// consumed and the capacity per core.
	half := func(dur time.Duration, tr *tracer, firstWrite, firstRead int) (written, read int, capacity float64) {
		writer := newRecorder()
		var reader *recorder
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader, read, _ = e.closedLoop(ctx, s, firstRead, dur, 1, tr)
		}()
		written = e.writeLoop(ctx, writes, wreads, firstWrite, func(int) bool { return time.Since(start) >= dur }, writer, tr)
		wg.Wait()
		all.merge(writer)
		all.merge(reader)
		done := append(append([]time.Time(nil), writer.doneAt...), reader.doneAt...)
		return written, read, perCore(sliceRate(done, start, start.Add(dur), rateSlice))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	written, read := 0, 0
	if b.tr == nil {
		_, _, capacity := half(b.dur, nil, 0, 0)
		b.e2e["capacity_rps_per_core"] = metric{capacity, "1/s"}
		b.printf("phase closed-loop writer+reader sent %d capacity_rps_per_core %g", all.attempted, capacity)
	} else {
		w1, r1, cap1 := half(b.dur/2, nil, 0, 0)
		runtime.ReadMemStats(&after)
		ops := all.attempted
		lateUntraced := append([]float64(nil), all.late...)
		w2, r2, cap2 := half(b.dur/2, b.tr, w1, r1)
		written, read = w1+w2, r1+r2
		b.layer["bench.tracing_overhead_frac"] = metric{1 - cap2/cap1, "fraction"}
		b.layer["runtime.mallocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / float64(ops), "count"}
		b.layer["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
		b.layer["bench.gen_late_p99_ms"] = metric{quantile(lateUntraced, 0.99), "ms"}
	}
	b.rec.merge(all)
	if err := requireSamples(all.lat, seriesTranslate, seriesAppend, seriesRAW); err != nil {
		return nil, err
	}
	b.e2e["translate_p50_ms"] = metric{median(all.lat[seriesTranslate]), "ms"}
	b.layer["translate_p99_ms"] = metric{quantile(all.lat[seriesTranslate], 0.99), "ms"}
	b.e2e["append_ack_p50_ms"] = metric{median(all.lat[seriesAppend]), "ms"}
	b.e2e["read_after_write_p50_ms"] = metric{median(all.lat[seriesRAW]), "ms"}
	b.printf("samples translate %d append_ack %d read_after_write %d; info translate_p99_ms %g append_ack_p99_ms %g",
		len(all.lat[seriesTranslate]), len(all.lat[seriesAppend]), len(all.lat[seriesRAW]),
		quantile(all.lat[seriesTranslate], 0.99), quantile(all.lat[seriesAppend], 0.99))

	if b.tr != nil {
		// Bags are counted over every translate both clients sent; the
		// traced pass sends the reader's next requests to the now
		// quiescent tenant.
		sent := append(append([]workload.Request(nil), reqs[:min(read, len(reqs))]...), wreads[:min(written, len(wreads))]...)
		if err := b.traceReads(ctx, s, read, sent); err != nil {
			return nil, err
		}
	}
	return all.acks, nil
}

// checkWrites checks the write tenant after the timed phases: the acks'
// WAL sequence numbers are contiguous from the archive's, and the served
// snapshot equals a batch build over the initial log plus every
// acknowledged append, in ack order.
func (b *bench) checkWrites(acks []ack) error {
	w := b.e.write
	for i, a := range acks {
		if want := int64(w.t.SnapshotSeq) + int64(i) + 1; a.seq != want {
			return fmt.Errorf("wal_seq acks not contiguous: ack %d has seq %d, want %d", i, a.seq, want)
		}
	}
	entries, err := gold(w.ds)
	if err != nil {
		return err
	}
	g, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		return err
	}
	for _, a := range acks {
		op, err := parseAppend(a.req, nil, 0)
		if err != nil {
			return err
		}
		if op.session {
			if err := g.AddSession(op.queries, 1, op.decay); err != nil {
				return err
			}
			continue
		}
		for i, q := range op.queries {
			g.AddQuery(q, op.counts[i])
		}
	}
	batch := g.Snapshot(fragment.NewInterner())
	if err := snapshotsEqual(w.t.Sys.Live().CurrentSnapshot(), batch); err != nil {
		return fmt.Errorf("served snapshot differs from a batch build of the same log: %w", err)
	}
	b.printf("check write tenant: %d acks contiguous from seq %d; served snapshot equals batch build (%d queries)",
		len(acks), w.t.SnapshotSeq+1, batch.Queries())
	return nil
}

// reboot closes the write tenant and boots it again from its archive plus
// WAL, repeatedly (see bootBudget). Each boot must reproduce the snapshot served before
// the restart; boot-to-first-answer is the median boot.
func (b *bench) reboot(ctx context.Context) error {
	w := b.e.write
	pre := w.t.Sys.Live().CurrentSnapshot()
	b.e.reg.Remove(w.t.Name)
	if err := w.t.WAL.Close(); err != nil {
		return err
	}
	w.t.WAL = nil
	var totals []float64
	start := time.Now()
	for i := 0; i < maxBoots && (i < minBoots || time.Since(start) < bootBudget); i++ {
		t, m, bt, err := bootTenant(ctx, w.ds, w.t.Name, w.archive, w.walDir, w.ds.Tasks[0].Keywords)
		if err != nil {
			return fmt.Errorf("reboot: %w", err)
		}
		w.mappings = append(w.mappings, m)
		if err := snapshotsEqual(t.Sys.Live().CurrentSnapshot(), pre); err != nil {
			b.checks = append(b.checks, fmt.Sprintf("rebooted snapshot differs from the one served before restart: %v", err))
		}
		if err := t.WAL.Close(); err != nil {
			return err
		}
		totals = append(totals, ms(bt.total()))
		if i == 0 {
			b.printf("boot: open %v wrap %v engine %v wal_replay %v first_translate %v", bt.open, bt.wrap, bt.engine, bt.replay, bt.first)
		}
	}
	b.printf("boots %d median_ms %g", len(totals), median(totals))
	b.e2e["boot_to_first_answer_ms"] = metric{median(totals), "ms"}
	b.e2e["setup_s"] = metric{median(b.setupS), "s"}
	b.e2e["heap_mb"] = metric{b.heap, "MB"}
	size, err := b.archiveBytes()
	if err != nil {
		return err
	}
	b.printf("archive %s bytes %d; setup reps %v s", w.archive, size, b.setupS)
	if b.tr != nil {
		b.layer["qfg.vertices"] = metric{float64(b.vertices), "count"}
		b.layer["qfg.edges"] = metric{float64(b.edges), "count"}
		b.layer["store.archive_bytes"] = metric{float64(size), "bytes"}
	}
	return nil
}
