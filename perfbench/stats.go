package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the exact-sample q-quantile of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. xs
// need not be sorted; it is not modified. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dueTime is when request i of an open-loop schedule at rate per second,
// starting at start, is due to be sent.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoopTiming splits one open-loop request's timeline into the latency
// a user sees (from the request's due time to its answer, so generator
// stalls count against the system) and the generator's lateness (from the
// due time to the actual send).
func openLoopTiming(due, sent, done time.Time) (latency, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// sliceRate is the median, over the whole slices of length slice from
// start to end, of completions per second in the slice. A median of
// slices keeps a burst of interference in part of the run from moving
// the whole run's figure.
func sliceRate(done []time.Time, start, end time.Time, slice time.Duration) float64 {
	n := int(end.Sub(start) / slice)
	if n < 1 {
		return float64(len(done)) / end.Sub(start).Seconds()
	}
	counts := make([]float64, n)
	for _, t := range done {
		if i := int(t.Sub(start) / slice); i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return median(counts)
}
