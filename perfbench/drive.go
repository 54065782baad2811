package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"templar/internal/workload"
	"templar/pkg/api"
)

// Latency series a recorder keeps, by name.
const (
	seriesMap       = "map_keywords"
	seriesInfer     = "infer_joins"
	seriesTranslate = "translate"
	seriesAppend    = "append_ack"
	seriesRAW       = "read_after_write"
)

// recorder collects one client goroutine's outcomes; recorders are merged
// once the goroutines have ended.
type recorder struct {
	lat       map[string][]float64 // milliseconds, by series
	late      []float64            // generator lateness, milliseconds
	attempted int
	failed    int
	// doneAt is when each call completed, for per-slice throughput.
	doneAt     []time.Time
	mismatches []string
	// acks are the acknowledged appends in ack order, with their WAL
	// sequence numbers.
	acks []ack
}

type ack struct {
	seq int64
	req api.LogAppendRequest
	// read is the translate the writer sent right after this ack.
	read *workload.Request
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]float64)} }

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.late = append(r.late, o.late...)
	r.doneAt = append(r.doneAt, o.doneAt...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatches = append(r.mismatches, o.mismatches...)
	r.acks = append(r.acks, o.acks...)
}

// fail counts one failed operation and keeps the first few reasons.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 5 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// observe records one read: its latency, and whether the answer is an
// error, carries a per-item error, or differs from the expected answer
// (want == "" checks only for errors).
func (r *recorder) observe(req *workload.Request, lat time.Duration, got, want string, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.fail("seq %d %s: %v", req.Seq, req.Op, err)
		return
	case strings.Contains(got, "error:"):
		r.fail("seq %d %s: item error %q", req.Seq, req.Op, got)
	case want != "" && got != want:
		r.fail("seq %d %s: served answer differs from the direct engine call", req.Seq, req.Op)
	}
	r.lat[seriesOf(req.Op)] = append(r.lat[seriesOf(req.Op)], ms(lat))
}

func seriesOf(op workload.Op) string {
	switch op {
	case workload.OpMapKeywords:
		return seriesMap
	case workload.OpInferJoins:
		return seriesInfer
	case workload.OpTranslate:
		return seriesTranslate
	}
	return string(op)
}

// stream is a generated request sequence with the expected answer of each
// request; request i of a run is stream entry i mod len.
type stream struct {
	reqs []workload.Request
	want []string
}

func (s *stream) at(i int) (*workload.Request, string) {
	j := i % len(s.reqs)
	want := ""
	if s.want != nil {
		want = s.want[j]
	}
	return &s.reqs[j], want
}

// send issues one read request through the client and returns the
// answer's canonical form.
func (e *env) send(ctx context.Context, r *workload.Request) (string, error) {
	switch r.Op {
	case workload.OpMapKeywords:
		resp, err := e.client.MapKeywords(ctx, r.Dataset, *r.MapKeywords)
		if err != nil {
			return "", err
		}
		return wireMap(resp), nil
	case workload.OpInferJoins:
		resp, err := e.client.InferJoins(ctx, r.Dataset, *r.InferJoins)
		if err != nil {
			return "", err
		}
		return wireInfer(resp), nil
	case workload.OpTranslate:
		resp, err := e.client.Translate(ctx, r.Dataset, *r.Translate)
		if err != nil {
			return "", err
		}
		return wireTranslate(resp), nil
	}
	return "", fmt.Errorf("send: unsupported op %q", r.Op)
}

// openLoop sends n requests of s, starting at stream index first, on a
// fixed schedule of rate requests per second, from workers goroutines.
// Each request is timed from its due time, so a stall delays and charges
// every request due during it; the recorder's late series is how far
// behind schedule each request was actually sent.
func (e *env) openLoop(ctx context.Context, s *stream, first, n int, rate float64, workers int) *recorder {
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	recs := make([]*recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		rec := newRecorder()
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := dueTime(start, i, rate)
				waitUntil(due)
				r, want := s.at(first + i)
				sent := time.Now()
				got, err := e.send(ctx, r)
				lat, late := openLoopTiming(due, sent, time.Now())
				rec.observe(r, lat, got, want, err)
				rec.late = append(rec.late, ms(late))
			}
		}()
	}
	wg.Wait()
	out := newRecorder()
	for _, r := range recs {
		out.merge(r)
	}
	return out
}

// sleepSlack is how early a wait stops sleeping and starts yielding: a
// timer sleep can overshoot by about a millisecond, which would make the
// generator, not the system, late.
const sleepSlack = 1500 * time.Microsecond

// waitUntil returns at t: it sleeps while t is far, then yields the
// processor in a loop, so other goroutines (the server's) run meanwhile.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs workers goroutines that each send the next request of s
// as soon as their previous one is answered, for dur. It returns the
// merged recorder, how many stream entries it consumed and its
// completions per second per core (the median over rateSlice slices). The late series holds each goroutine's turnaround gap (its
// previous answer to its next send). With a tracer, every call is
// recorded as a load.roundtrip span.
func (e *env) closedLoop(ctx context.Context, s *stream, first int, dur time.Duration, workers int, tr *tracer) (*recorder, int, float64) {
	start := time.Now()
	var next atomic.Int64
	recs := make([]*recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		rec := newRecorder()
		recs[w] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for time.Since(start) < dur {
				i := first + int(next.Add(1)) - 1
				r, want := s.at(i)
				sent := time.Now()
				id := tr.start("load.roundtrip", 0, i)
				got, err := e.send(ctx, r)
				tr.end(id)
				done := time.Now()
				rec.observe(r, done.Sub(sent), got, want, err)
				rec.late = append(rec.late, ms(sent.Sub(prev)))
				rec.doneAt = append(rec.doneAt, done)
				prev = done
			}
		}()
	}
	wg.Wait()
	out := newRecorder()
	for _, r := range recs {
		out.merge(r)
	}
	return out, int(next.Load()), perCore(sliceRate(out.doneAt, start, start.Add(dur), rateSlice))
}

// rateSlice is the slice length throughput is measured over.
const rateSlice = 2 * time.Second

// perCore divides a rate by GOMAXPROCS.
func perCore(rate float64) float64 { return rate / float64(runtime.GOMAXPROCS(0)) }

// writeLoop is the writing client: it appends writes[i] to the write
// tenant, waits for the ack, then translates reads[i] on the same tenant,
// until stop(i) says to end. The translate's latency from the append's
// ack is the read-after-write latency. It returns how many appends it
// sent. With a tracer, both calls are recorded as load.roundtrip spans.
func (e *env) writeLoop(ctx context.Context, writes, reads []workload.Request, first int, stop func(i int) bool, rec *recorder, tr *tracer) int {
	name := e.write.t.Name
	prev := time.Now()
	i := first
	for ; !stop(i); i++ {
		w := writes[i%len(writes)].LogAppend
		sent := time.Now()
		rec.late = append(rec.late, ms(sent.Sub(prev)))
		id := tr.start("load.roundtrip", 0, -1-i)
		resp, err := e.client.AppendLog(ctx, name, *w)
		tr.end(id)
		acked := time.Now()
		rec.attempted++
		rec.doneAt = append(rec.doneAt, acked)
		if err != nil {
			rec.fail("append %d: %v", i, err)
			prev = acked
			continue
		}
		rec.lat[seriesAppend] = append(rec.lat[seriesAppend], ms(acked.Sub(sent)))
		r := &reads[i%len(reads)]
		rec.acks = append(rec.acks, ack{seq: resp.WALSeq, req: *w, read: r})

		id = tr.start("load.roundtrip", 0, -1-i)
		got, err := e.send(ctx, r)
		tr.end(id)
		done := time.Now()
		rec.observe(r, done.Sub(acked), got, "", err)
		rec.doneAt = append(rec.doneAt, done)
		if err == nil {
			rec.lat[seriesRAW] = append(rec.lat[seriesRAW], ms(done.Sub(acked)))
		}
		prev = done
	}
	return i - first
}
